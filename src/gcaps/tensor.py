"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a local-gradient closure on the
output node; ``Tensor.backward`` builds a :class:`GradTape` (a topologically
ordered list of nodes) and walks it in reverse.  Broadcasting follows
trailing-dimension rules only: aligned from the right, a dimension pairs if
the sizes are equal or one of them is 1.

Gradients accumulate into ``.grad`` until explicitly cleared, so repeated
backward passes without a reset sum their contributions.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A computation that requires finite values saw NaN or infinity."""


DEFAULT_DTYPE = np.float64

# Module-level switch consulted at node-creation time; flipped by no_grad().
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure evaluation mode)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense n-dimensional array participating in a gradient tape.

    ``data`` is row-major float64 (float32 allowed for non-acceptance use).
    Tensors are immutable after construction except for the ``grad`` buffer.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype != np.float32:
            arr = arr.astype(DEFAULT_DTYPE, copy=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    @classmethod
    def _node(cls, data: np.ndarray, parents: Sequence["Tensor"],
              backward_fn: Callable[[np.ndarray], None] | None, op: str) -> "Tensor":
        """Create an interior graph node (used by all operations)."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            out._op = op
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
            out._op = op
        return out

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad})"

    def detach(self) -> "Tensor":
        """A leaf sharing this tensor's values, cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def clear_grad(self) -> None:
        self.grad = None

    # -- autodiff ---------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=self.data.dtype)
        np.add(self.grad, g, out=self.grad)

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires_grad tensor.

        Only defined for single-element tensors.  Accumulates on repeat.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        tape = GradTape.from_root(self)
        self._accumulate(np.ones((), dtype=self.data.dtype).reshape(self.data.shape))
        tape.run()

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce("sum", self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce("mean", self, axis, keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce("max", self, axis, keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def exp(self) -> "Tensor":
        return exp(self)

    def sqrt(self) -> "Tensor":
        return sqrt(self)

    def relu(self) -> "Tensor":
        return relu(self)

    def sigmoid(self) -> "Tensor":
        return sigmoid(self)


class GradTape:
    """Topologically ordered record of the operations reaching one root.

    ``nodes`` lists every graph node with inputs strictly before outputs;
    ``run`` walks it in reverse, invoking each node's local-gradient closure.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: Tensor) -> "GradTape":
        order: list[Tensor] = []
        seen: set[int] = set()
        # Iterative post-order; graphs from unrolled routing stay shallow but
        # this avoids any recursion-limit coupling.
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def run(self) -> None:
        for node in reversed(self.nodes):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


# -- helpers ---------------------------------------------------------------


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def zeros(shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def _broadcast_shape(sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """Resolve the trailing-rule broadcast shape or raise ShapeError."""
    out = []
    for da, db in zip(reversed((1,) * max(0, len(sb) - len(sa)) + sa),
                      reversed((1,) * max(0, len(sa) - len(sb)) + sb)):
        if da == db or da == 1 or db == 1:
            out.append(max(da, db))
        else:
            raise ShapeError(f"cannot broadcast shapes {sa} and {sb}")
    return tuple(reversed(out))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} invalid for {ndim}-dimensional tensor")
    return axis % ndim


# -- elementwise operations -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._node(out_data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor._node(out_data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._node(out_data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor._node(out_data, (a, b), backward, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        a._accumulate(-g)

    return Tensor._node(-a.data, (a,), backward, "neg")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return Tensor._node(out_data, (a,), backward, "exp")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * (0.5 / out_data))

    return Tensor._node(out_data, (a,), backward, "sqrt")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0.0))

    return Tensor._node(out_data, (a,), backward, "relu")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._node(out_data, (a,), backward, "sigmoid")


# -- contraction and structure ----------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading dimensions broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} and {b.shape}")
    _broadcast_shape(a.shape[:-2], b.shape[:-2])
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return Tensor._node(out_data, (a, b), backward, "matmul")


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return Tensor._node(out_data, (a,), backward, "reshape")


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation for shape {a.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    out_data = np.ascontiguousarray(a.data.transpose(axes))

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return Tensor._node(out_data, (a,), backward, "transpose")


def reduce(op_kind: str, t, axis=None, keepdims: bool = False) -> Tensor:
    """Reduce along ``axis`` (or everything when axis is None).

    ``max`` routes its gradient to the first occurrence of the maximum along
    the reduced axis (lowest index wins ties).
    """
    t = as_tensor(t)
    if axis is not None:
        axis = _normalize_axis(axis, t.ndim)

    if op_kind == "sum":
        out_data = t.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            t._accumulate(np.broadcast_to(_rekeep(g, t.shape, axis, keepdims), t.shape))

    elif op_kind == "mean":
        out_data = t.data.mean(axis=axis, keepdims=keepdims)
        count = t.data.size if axis is None else t.shape[axis]

        def backward(g):
            t._accumulate(np.broadcast_to(_rekeep(g, t.shape, axis, keepdims), t.shape) / count)

    elif op_kind == "max":
        out_data = t.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            kept = t.data.max(axis=axis, keepdims=True) if axis is not None else t.data.max()
            hit = t.data == kept
            if axis is None:
                flat = hit.reshape(-1)
                first = np.zeros_like(flat)
                first[np.argmax(flat)] = True
                mask = first.reshape(t.shape)
            else:
                mask = hit & (np.cumsum(hit, axis=axis) == 1)
            t._accumulate(mask * np.broadcast_to(_rekeep(g, t.shape, axis, keepdims), t.shape))

    else:
        raise ValueError(f"unknown reduce op {op_kind!r}")

    return Tensor._node(out_data, (t,), backward, f"reduce_{op_kind}")


def _rekeep(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Reshape a reduced gradient so it broadcasts back over ``shape``."""
    if axis is None:
        return g.reshape((1,) * len(shape))
    if keepdims:
        return g
    return np.expand_dims(g, axis)


def softmax_along(t, axis: int) -> Tensor:
    """Softmax normalized along ``axis``, stabilized by max subtraction."""
    t = as_tensor(t)
    axis = _normalize_axis(axis, t.ndim)
    if not np.isfinite(t.data).all():
        raise NonFiniteError("softmax_along requires finite input")
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        t._accumulate(out_data * (g - inner))

    return Tensor._node(out_data, (t,), backward, "softmax")


# -- convolution -------------------------------------------------------------


def conv2d(x, kernel, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of ``x`` [B,C,H,W] with ``kernel`` [O,C,kh,kw].

    Output spatial size is floor((H + 2*padding - kh)/stride) + 1 (same for
    width).  Implemented as im2col plus one matrix product.  The column
    buffer, the layer's largest allocation, is kept only when the kernel needs
    a gradient.  The input gradient is built one output position at a time,
    adding that position's [C,kh,kw] block to the window it read.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.shape} and {kernel.shape}")
    batch, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {hp}x{wp} (shape {x.shape}, padding {padding})")
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1

    if padding:
        x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        x_pad = x.data

    cols = _im2col(x_pad, kh, kw, stride, h_out, w_out)
    w_mat = kernel.data.reshape(c_out, -1)
    out = cols @ w_mat.T
    out_data = np.ascontiguousarray(
        out.reshape(batch, h_out, w_out, c_out).transpose(0, 3, 1, 2))
    kept_cols = cols if (_grad_enabled and kernel.requires_grad) else None

    def backward(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if kernel.requires_grad:
            kernel._accumulate((g_mat.T @ kept_cols).reshape(kernel.shape))
        if x.requires_grad:
            g_pos = g_mat.reshape(batch, h_out, w_out, c_out)
            dx_pad = np.zeros((batch, c_in, hp, wp), dtype=g.dtype)
            for i in range(h_out):
                for j in range(w_out):
                    dx_pad[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += \
                        (g_pos[:, i, j] @ w_mat).reshape(batch, c_in, kh, kw)
            x._accumulate(dx_pad[:, :, padding:padding + h, padding:padding + w])

    return Tensor._node(out_data, (x, kernel), backward, "conv2d")


def _im2col(x_pad: np.ndarray, kh: int, kw: int, stride: int,
            h_out: int, w_out: int) -> np.ndarray:
    windows = sliding_window_view(x_pad, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    batch, c_in = x_pad.shape[:2]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * h_out * w_out, c_in * kh * kw)


# -- numeric differentiation (shared by tests and diagnostics) ---------------


def numeric_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return grad


def first_nonfinite(named: Iterable[tuple[str, Tensor]]) -> str | None:
    """Name of the first tensor holding NaN/inf, scanning in given order."""
    for name, t in named:
        if not np.isfinite(t.data).all():
            return name
    return None
