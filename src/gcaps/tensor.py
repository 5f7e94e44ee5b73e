"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a local-gradient closure on the
output node; ``Tensor.backward`` builds a :class:`GradTape` (a topologically
ordered list of nodes) and walks it in reverse.  Broadcasting follows
trailing-dimension rules only: aligned from the right, a dimension pairs if
the sizes are equal or one of them is 1.

Gradients accumulate into ``.grad`` until explicitly cleared, so backward
passes over newly built graphs sum their contributions.  A pass consumes
the graph it walks: the tape lets go of each node it reaches, and the node
of its inputs and closure, before the node's gradient is settled and its
closure runs, so a node no caller holds, every array its closure saved and
every gradient no caller holds are freed as the walk moves down.  A second
``backward()`` from the same root, or from a new root that reaches a node
of a consumed graph, raises ``RuntimeError``.

A closure either adds a finished gradient (``_accumulate``; the first one
is copied, later ones added in place), hands over a fresh buffer that
nothing else holds (``_adopt``, which takes it as the gradient when there
is none yet), or, for a [B, N, J, D] input whose gradient is a sum of
outer products, hands over a factor pair (``_defer``): coefficients
[B, T, K, J] and vectors [B, T or 1, J, D] (N = T*K) standing for
coef[b,t,k,j] * vec[b,t,j,d].  ``GradTape.run`` settles a node's pairs with
one batched matmul over the stacked factors just before the node's own
backward runs, so such a gradient is written once per pass instead of once
per use.

Importing this module changes the process's allocator: where glibc provides
``mallopt``, it is told to keep freed memory for reuse (``M_TRIM_THRESHOLD``
= INT_MAX, ``M_MMAP_MAX`` = 0), so the 100-200 MB arrays a step frees and
allocates again are not handed back to the kernel and faulted in afresh.
``FREED_PAGES_KEPT`` says whether that took effect; a host program that
wants glibc's defaults back calls ``mallopt`` again after the import.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A computation that requires finite values saw NaN or infinity."""


DEFAULT_DTYPE = np.float64


def _keep_freed_pages() -> bool:
    """Make glibc keep freed memory for reuse; whether both settings took.

    By default glibc returns every block above its mmap ceiling (32 MiB at
    most) to the kernel when it is freed, and trims the heap's free top, so
    a step that frees and reallocates arrays of 100-200 MB faults each page
    in again.  ``M_TRIM_THRESHOLD`` = INT_MAX stops the trims and
    ``M_MMAP_MAX`` = 0 serves every block from the heap.  A no-op where
    glibc or its ``mallopt`` is missing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return mallopt(-1, 2**31 - 1) == 1 and mallopt(-4, 0) == 1   # M_TRIM_THRESHOLD, M_MMAP_MAX


# Set once at import, for the whole process (see the module docstring).
FREED_PAGES_KEPT = _keep_freed_pages()

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
    Operations never write their inputs' ``data``; a backward pass writes
    ``grad``, and an optimizer step (``network.Adam.step``) updates a
    parameter's ``data`` in place.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op",
                 "_pending", "__weakref__")

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
        self._pending: list[tuple[np.ndarray, np.ndarray]] | None = None

    @classmethod
    def _node(cls, data: np.ndarray, parents: Sequence["Tensor"],
              backward_fn: Callable[[np.ndarray], None] | None, op: str) -> "Tensor":
        """Create an interior graph node (used by all operations)."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._pending = None
        out._op = op
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
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

    def clear_grad(self) -> None:
        self.grad = None

    # -- autodiff ---------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.empty(self.data.shape, dtype=self.data.dtype)
            np.copyto(self.grad, g)
        else:
            np.add(self.grad, g, out=self.grad)

    def _defer(self, coef: np.ndarray, vec: np.ndarray) -> None:
        """Add coef[b,t,k,j] * vec[b,t,j,d] to this [B, T*K, J, D] tensor's
        gradient when ``GradTape.run`` reaches it; ``vec`` may have T = 1."""
        if self.requires_grad:
            self._pending = (self._pending or []) + [(coef, vec)]

    def _adopt(self, g: np.ndarray) -> None:
        """Add ``g``, a fresh buffer of this tensor's shape that nothing else
        holds, to ``grad``; with no ``grad`` yet, take it as is when its
        dtype is this tensor's."""
        if self.grad is None and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self._accumulate(g)

    def backward(self) -> None:
        """Populate ``grad`` on every reachable requires_grad tensor.

        Only defined for single-element tensors.  The pass consumes the
        graph (see the module docstring): ``grad`` stays on the tensors a
        caller holds, and a second pass from this root raises.
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
    ``run`` pops them off the end, settling each node's deferred terms and
    then invoking its local-gradient closure.  Every consumer of a node runs
    before it, so its terms are complete when it is settled.  Before either,
    the node drops its inputs and takes ``_consumed`` as its closure, and
    ``run`` lets go of it: with no caller holding it (a weak reference
    tells), its ``data`` is freed before its gradient is written;
    otherwise the gradient is stored on it.  Closures never read their own
    node; one that needs its output captures the array.
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
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            fn, pairs, grad = node._backward_fn, node._pending, node.grad
            shape, dtype = node.data.shape, node.data.dtype
            node._pending = None
            if fn is not None:
                node._parents, node._backward_fn = (), _consumed
            held = weakref.ref(node)
            del node   # with no caller holding it, its data is freed here
            if pairs:
                settled = _outer_sum(pairs, shape, dtype)
                grad = settled if grad is None else np.add(grad, settled, out=grad)
                del pairs, settled
                if held() is not None:
                    held().grad = grad
            if fn is not None and grad is not None:
                fn(grad)


def _consumed(g: np.ndarray) -> None:
    """The closure of a node that a backward pass has already walked."""
    raise RuntimeError("backward reached a node of a graph that an earlier pass"
                       " consumed; build the graph again to differentiate it again")


# -- helpers ---------------------------------------------------------------


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _outer_sum(pairs: list[tuple[np.ndarray, np.ndarray]], shape: tuple[int, ...],
               dtype) -> np.ndarray:
    """sum over pairs of coef[b,t,k,j] * vec[b,t,j,d] as a [B, N, J, D] array.

    Pairs may split N into different type counts; all are refined to their
    least common multiple T, so each (b, t, j) is one [K, P] @ [P, D]
    product over the P stacked pairs, written through a view of the result.
    """
    batch, n, j, d = shape
    types = math.lcm(*(c.shape[1] for c, _ in pairs))
    k = n // types
    coef = np.empty((batch, types, j, len(pairs), k), dtype=dtype)
    vec = np.empty((batch, types, j, len(pairs), d), dtype=dtype)
    for p, (c, v) in enumerate(pairs):
        coef[:, :, :, p] = c.reshape(batch, types, k, j).swapaxes(2, 3)
        vec[:, :, :, p] = np.repeat(v, types // v.shape[1], axis=1)
    out = np.empty(shape, dtype=dtype)
    np.matmul(coef.swapaxes(3, 4), vec, out=out.reshape(batch, types, k, j, d).swapaxes(2, 3))
    return out


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a Python int or float takes the other
    operand's dtype, so a float32 tensor stays float32."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        return a, Tensor(b, dtype=a.data.dtype)
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(a, dtype=b.data.dtype), b
    return as_tensor(a), as_tensor(b)


def _broadcast_shape(sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """Resolve the trailing-rule broadcast shape or raise ShapeError."""
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"cannot broadcast shapes {sa} and {sb}") from None


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
    a, b = _operands(a, b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._node(out_data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor._node(out_data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._node(out_data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
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


def conv2d(x, kernel, stride: int = 1, padding: int = 0, bias=None,
           relu: bool = False) -> Tensor:
    """2-D cross-correlation of ``x`` [B,C,H,W] with ``kernel`` [O,C,kh,kw],
    plus ``bias`` [O] per output channel when given, clamped at zero when
    ``relu`` is set.

    Output spatial size is floor((H + 2*padding - kh)/stride) + 1 (same for
    width).  The bias and the clamp go in place on the buffer the
    convolution writes, so the call is one tape node holding one output
    with the values of ``(conv2d(x, kernel) + bias.reshape(1, -1, 1, 1)).relu()``.
    Its backward zeroes the gradient where that output is not positive,
    which is where the clamp's input was not (NaN included), and sums the
    bias gradient over batch and positions; it keeps nothing else for
    either.  Each call runs one of two algorithms, chosen from the shapes by
    ``_spectral_is_cheaper``: the one that makes fewer multiplications plus
    bytes moved, counting the backward work of every gradient that will be
    recorded.

    * im2col (``_conv2d_im2col``): a column buffer of every window, then one
      matrix product.  The buffer, the layer's largest allocation, is kept
      only when the kernel needs a gradient.  The input gradient is built one
      output position at a time.
    * spectral (``_conv2d_spectral``): one channel product per frequency of
      the half spectrum of the grid the windows read, (h_out-1)*stride + kh
      by (w_out-1)*stride + kw, with every transform done as a pair of 1-D
      DFT-matrix products over cache-sized blocks of signals, so no
      transform makes a temporary the size of its input.  It keeps the
      input's spectrum when the kernel needs a gradient; the kernel's is
      built per block of output channels for the forward and again per
      block of input channels for the input gradient, never held whole.
      Results differ from im2col's by rounding (about 1e-15 of the largest
      value in float64).  A NaN or infinity at a point that some window
      reads reaches every output of its image; points no window reads reach
      none.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    bias = None if bias is None else as_tensor(bias)
    spectral = _spectral_is_cheaper(x.shape, kernel.shape, stride, padding,
                                    _grad_enabled and x.requires_grad,
                                    _grad_enabled and kernel.requires_grad)
    return (_conv2d_spectral if spectral else _conv2d_im2col)(x, kernel, stride, padding,
                                                              bias, relu)


def _conv2d_geometry(x_shape: tuple[int, ...], k_shape: tuple[int, ...],
                     stride: int, padding: int) -> tuple[int, int]:
    """Validated output height and width of a conv2d call."""
    if len(x_shape) != 4 or len(k_shape) != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x_shape} and {k_shape}")
    if k_shape[1] != x_shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x_shape} vs kernel {k_shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")
    hp, wp = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    kh, kw = k_shape[2:]
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {hp}x{wp} (shape {x_shape}, padding {padding})")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def _spectral_grid(x_shape: tuple[int, ...], k_shape: tuple[int, ...], stride: int,
                   padding: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """The hg x wg grid the windows read, and the grid rows and columns of
    the input's points inside it (the padding shifts them)."""
    h_out, w_out = _conv2d_geometry(x_shape, k_shape, stride, padding)
    hg, wg = (h_out - 1) * stride + k_shape[2], (w_out - 1) * stride + k_shape[3]
    return (hg, wg, np.arange(padding, min(x_shape[2] + padding, hg)),
            np.arange(padding, min(x_shape[3] + padding, wg)))


def _spectral_is_cheaper(x_shape: tuple[int, ...], k_shape: tuple[int, ...], stride: int,
                         padding: int, x_grad: bool, k_grad: bool) -> bool:
    """Whether ``_conv2d_spectral`` costs less than im2col.

    Each side counts the products of its matrix multiplications (a real
    times a real counts 1, a real times a complex 2 and a complex times a
    complex 4) plus one per byte that each of its stages reads or writes
    (float64 and complex128 sizes).  The bytes decide the small batches:
    there the kernel's many short transforms and the channel products'
    reads of its spectrum are bound by moving memory, not by multiplying.
    ``x_grad`` and ``k_grad`` say which gradients will be recorded, adding
    their backward work to both sides.
    """
    h_out, w_out = _conv2d_geometry(x_shape, k_shape, stride, padding)
    hg, wg, x_rows, x_cols = _spectral_grid(x_shape, k_shape, stride, padding)
    batch, c_in = x_shape[:2]
    c_out, _, kh, kw = k_shape
    half = wg // 2 + 1

    def transform(rows: int, cols: int, signals: int) -> int:
        # a spectrum from rows x cols points, or the values at them: a real
        # or real-part product along the columns and a complex one along the
        # rows; the points and the spectrum pass up to three times, the
        # row spectra four (written, transposed, read)
        return signals * (2 * half * rows * (cols + 2 * hg)
                          + 3 * (8 * rows * cols + 16 * hg * half) + 64 * rows * half)

    def product(m: int, n: int, k: int, reads: int = 1) -> int:
        # [m, k] @ [k, n] at each frequency: both operands read, the first
        # ``reads`` times, and the result written
        return hg * half * (4 * m * n * k + 16 * (reads * m * k + k * n + m * n))

    inputs = transform(len(x_rows), len(x_cols), batch * c_in)
    taps = transform(kh, kw, c_out * c_in)
    outputs = transform(h_out, w_out, batch * c_out)
    # the kernel's spectrum is built per block of ``batch`` output channels,
    # each multiplying X, and for the input gradient built again per block
    # of ``batch`` input channels, each multiplying G
    spectral = inputs + taps + outputs + product(batch, c_out, c_in, -(-c_out // batch))
    if x_grad or k_grad:   # the output gradient's spectrum
        spectral += outputs
    if k_grad:
        spectral += product(c_out, c_in, batch) + taps
    if x_grad:
        spectral += product(batch, c_in, c_out, -(-c_in // batch)) + taps + inputs
    # im2col: the column buffer written and read, the output written and
    # transposed; the kernel gradient reads the buffer again, and the input
    # gradient writes each position's product, then reads it and the window
    # it adds into and writes that window
    positions = batch * h_out * w_out
    column = positions * c_in * kh * kw
    return spectral < (column * (c_out * (1 + x_grad + k_grad) + 16 + 8 * k_grad + 32 * x_grad)
                       + 24 * positions * c_out)


def _conv2d_inputs(x: Tensor, kernel: Tensor, bias: Tensor | None) -> tuple[Tensor, ...]:
    """The node's inputs: ``x``, ``kernel`` and, when given, ``bias`` [O]."""
    if bias is None:
        return x, kernel
    if bias.shape != kernel.shape[:1]:
        raise ShapeError(f"conv2d bias {bias.shape} does not match kernel {kernel.shape}")
    return x, kernel, bias


def _add_bias_relu(out: np.ndarray, bias: Tensor | None, relu: bool, trailing: int) -> None:
    """Add ``bias`` along the axis of ``out`` that ``trailing`` axes follow,
    then clamp ``out`` at zero when ``relu`` is set; both in place."""
    if bias is not None:
        out += bias.data.reshape(-1, *(1,) * trailing)
    if relu:
        np.maximum(out, 0.0, out=out)


def _through_bias_relu(g: np.ndarray, out: np.ndarray, bias: Tensor | None,
                       relu: bool) -> np.ndarray:
    """The gradient at the convolution's own result, from ``g`` at the
    node's output ``out`` [B, O, h, w]: masked where ``relu`` clamped, and
    summed over batch and positions into ``bias``'s gradient."""
    if relu:
        g = g * (out > 0.0)
    if bias is not None and bias.requires_grad:
        bias._adopt(g.sum(axis=(0, 2, 3)))
    return g


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if not padding:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _conv2d_im2col(x: Tensor, kernel: Tensor, stride: int, padding: int,
                   bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """conv2d as one product of the windows' column buffer with the kernel;
    the bias and the clamp go on that product's [positions, O] result."""
    h_out, w_out = _conv2d_geometry(x.shape, kernel.shape, stride, padding)
    parents = _conv2d_inputs(x, kernel, bias)
    batch, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    hp, wp = h + 2 * padding, w + 2 * padding

    cols = _im2col(_pad(x.data, padding), kh, kw, stride, h_out, w_out)
    w_mat = kernel.data.reshape(c_out, -1)
    out = cols @ w_mat.T
    _add_bias_relu(out, bias, relu, 0)
    out_data = np.ascontiguousarray(
        out.reshape(batch, h_out, w_out, c_out).transpose(0, 3, 1, 2))
    kept_cols = cols if (_grad_enabled and kernel.requires_grad) else None

    def backward(g):
        g_mat = _through_bias_relu(g, out_data, bias, relu).transpose(0, 2, 3, 1).reshape(
            -1, c_out)
        if kernel.requires_grad:
            kernel._adopt((g_mat.T @ kept_cols).reshape(kernel.shape))
        if x.requires_grad:
            g_pos = g_mat.reshape(batch, h_out, w_out, c_out)
            dx_pad = np.zeros((batch, c_in, hp, wp), dtype=g.dtype)
            for i in range(h_out):
                for j in range(w_out):
                    dx_pad[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += \
                        (g_pos[:, i, j] @ w_mat).reshape(batch, c_in, kh, kw)
            x._accumulate(dx_pad[:, :, padding:padding + h, padding:padding + w])

    return Tensor._node(out_data, parents, backward, "conv2d")


def _im2col(x_pad: np.ndarray, kh: int, kw: int, stride: int,
            h_out: int, w_out: int) -> np.ndarray:
    windows = sliding_window_view(x_pad, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    batch, c_in = x_pad.shape[:2]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * h_out * w_out, c_in * kh * kw)


def _conv2d_spectral(x: Tensor, kernel: Tensor, stride: int, padding: int,
                     bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """conv2d as per-frequency channel products on the grid the windows read.

    The grid is hg x wg, hg = (h_out-1)*stride + kh (wg likewise).  No window
    wraps around it, so circular correlations on it equal the direct ones,
    and input points past it, which no window reads, get a zero gradient.
    With X, K and G the spectra of the input (shifted by the padding), the
    kernel's taps and the output gradient at its strided points, the
    output's spectrum is X conj(K), the kernel gradient's sum_b conj(G) X and
    the input gradient's G K: channel products at each of the F = hg *
    (wg//2 + 1) half-spectrum frequencies, in the inputs' complex dtype.
    Every transform is two 1-D DFT-matrix products per cache-sized block of
    signals (``_spectrum`` and ``_values_at``).  X is kept for the kernel
    gradient only when that gradient will be recorded.  K is never whole:
    it is built per block of ``batch`` output channels for the forward and
    of ``batch`` input channels for the input gradient, each block's
    product written into its columns.  The bias and the clamp go on the values.
    """
    h_out, w_out = _conv2d_geometry(x.shape, kernel.shape, stride, padding)
    parents = _conv2d_inputs(x, kernel, bias)
    batch, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    hg, wg, x_rows, x_cols = _spectral_grid(x.shape, kernel.shape, stride, padding)
    grid, freqs = (hg, wg), hg * (wg // 2 + 1)
    ctype = np.result_type(x.data.dtype, kernel.data.dtype, np.complex64)
    rtype = np.finfo(ctype).dtype
    out_rows, out_cols = np.arange(h_out) * stride, np.arange(w_out) * stride
    tap_rows, tap_cols = np.arange(kh), np.arange(kw)

    # A signal reflected through the origin has the conjugate spectrum, so
    # placing the input at the negated points gives conj(X), [F, B, C], and
    # conj(X conj(K)) = conj(X) K needs no conjugated copy of either.
    x_pts = x.data.reshape(batch * c_in, h, w)[:, :len(x_rows), :len(x_cols)]
    x_conj = _spectrum(x_pts, -x_rows, -x_cols, grid, ctype).reshape(freqs, batch, c_in)

    def taps_spectrum(taps: np.ndarray) -> np.ndarray:
        # [F, o, c] from o x c taps [o, c, kh, kw]
        return _spectrum(taps.reshape(-1, kh, kw), tap_rows, tap_cols, grid,
                         ctype).reshape(freqs, *taps.shape[:2])

    # A block of ``batch`` channels is no larger than X (or G, for the
    # input gradient), and the extra reads of X and G it costs are no more
    # bytes than the kernel's spectrum that is never held.
    product = np.empty((freqs, batch, c_out), dtype=ctype)
    for o in range(0, c_out, batch):
        np.matmul(x_conj, taps_spectrum(kernel.data[o:o + batch]).transpose(0, 2, 1),
                  out=product[:, :, o:o + batch])
    out_data = _values_at(product, out_rows, out_cols, grid,
                          np.empty((batch, c_out, h_out, w_out), dtype=rtype))
    _add_bias_relu(out_data, bias, relu, 2)
    kept_x = x_conj if (_grad_enabled and kernel.requires_grad) else None

    def backward(g):
        # Each spectrum is dropped once its last product is formed.
        nonlocal kept_x
        g = _through_bias_relu(g, out_data, bias, relu)
        g_spec = _spectrum(g.reshape(batch * c_out, h_out, w_out), out_rows, out_cols,
                           grid, ctype).reshape(freqs, batch, c_out)
        del g
        if kernel.requires_grad:
            dk_spec, kept_x = g_spec.transpose(0, 2, 1) @ kept_x, None
            kernel._adopt(_values_at(dk_spec, tap_rows, tap_cols, grid,
                                     np.empty(kernel.shape, dtype=rtype)))
            del dk_spec
        if x.requires_grad:
            # G K is the spectrum of the input gradient, so it is the conjugate
            # spectrum of that gradient reflected: read it at the negated points.
            dx_spec = np.empty((freqs, batch, c_in), dtype=ctype)
            for c in range(0, c_in, batch):
                np.matmul(g_spec, taps_spectrum(kernel.data[:, c:c + batch]),
                          out=dx_spec[:, :, c:c + batch])
            del g_spec
            dx = np.empty(x.shape, dtype=rtype)
            dx[:, :, len(x_rows):] = 0.0
            dx[:, :, :, len(x_cols):] = 0.0
            x._adopt(_values_at(dx_spec, -x_rows, -x_cols, grid, dx))

    return Tensor._node(out_data, parents, backward, "conv2d")


# Signals per transform block: enough that a block's spectra fill about this
# many bytes, so every stage's operands stay in cache.  Sweeping 0.5-8 MiB
# at the default primary conv moved nothing beyond the host's noise.
_BLOCK_BYTES = 2 << 20


def _signal_blocks(signals: int, freqs: int, ctype) -> list[slice]:
    """Consecutive slices of ``signals`` whose F-point spectra in ``ctype``
    take about ``_BLOCK_BYTES`` each (at least one signal)."""
    step = max(1, _BLOCK_BYTES // (freqs * np.dtype(ctype).itemsize))
    return [slice(m0, min(m0 + step, signals)) for m0 in range(0, signals, step)]


def _spectrum(values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              grid: tuple[int, int], ctype) -> np.ndarray:
    """[F, M] half spectra on ``grid`` of the M real signals ``values``
    [M, R, C] at grid rows ``rows`` and columns ``cols`` (modulo the grid).

    The signals go in cache-sized blocks.  In a block, one real GEMM of the
    [Mb*R, C] points with interleaved cos and -sin columns gives each row's
    complex half spectrum; after an in-cache transpose to [R, half*Mb], one
    complex GEMM along the rows gives the block's columns of the result.
    """
    hg, wg = grid
    half = wg // 2 + 1
    angle = 2 * np.pi * (np.outer(cols, np.arange(half)) % wg) / wg
    by_col = np.empty((len(cols), half, 2), dtype=np.finfo(ctype).dtype)
    by_col[..., 0], by_col[..., 1] = np.cos(angle), -np.sin(angle)
    by_col = by_col.reshape(len(cols), 2 * half)
    by_row = np.exp(-2j * np.pi * (np.outer(np.arange(hg), rows) % hg) / hg).astype(ctype)
    spec = np.empty((hg, half, len(values)), dtype=ctype)
    for blk in _signal_blocks(len(values), hg * half, ctype):
        near = (values[blk].reshape(-1, len(cols)) @ by_col).view(ctype)
        near = near.reshape(-1, len(rows) * half).T.copy()
        spec[:, :, blk] = (by_row @ near.reshape(len(rows), -1)).reshape(hg, half, -1)
    return spec.reshape(hg * half, -1)


def _values_at(spec_conj: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               grid: tuple[int, int], out: np.ndarray) -> np.ndarray:
    """``out`` [...M, H, W] with ``out[..., :R, :C]`` set to the M real
    signals whose conjugate half spectra on ``grid`` are ``spec_conj``
    [F, ...M], at grid rows ``rows`` [R] and columns ``cols`` [C].

    The signals go in cache-sized blocks.  In a block, complex GEMMs along
    the rows (one per column frequency, on strided slices of ``spec_conj``)
    give [half, R, Mb]; after an in-cache transpose to [Mb*R, half], one
    real GEMM of its interleaved real and imaginary parts with stacked cos
    and sin rows gives the values, which are written into ``out``'s block.
    Each column frequency but 0 and wg/2 also stands for its conjugate twin,
    so its rows carry weight 2.
    """
    hg, wg = grid
    half = wg // 2 + 1
    by_row = np.exp(-2j * np.pi * (np.outer(rows, np.arange(hg)) % hg) / hg).astype(spec_conj.dtype)
    col = np.arange(half)
    weight = (np.where((col == 0) | (2 * col == wg), 1.0, 2.0) / (hg * wg))[:, None]
    angle = 2 * np.pi * (np.outer(col, cols) % wg) / wg
    rtype = np.finfo(spec_conj.dtype).dtype
    by_col = np.empty((half, 2, len(cols)), dtype=rtype)
    by_col[:, 0], by_col[:, 1] = weight * np.cos(angle), weight * np.sin(angle)
    by_col = by_col.reshape(2 * half, len(cols))
    spec = spec_conj.reshape(hg, half, -1)
    target = out.reshape(-1, *out.shape[-2:])[:, :len(rows), :len(cols)]
    for blk in _signal_blocks(spec.shape[-1], hg * half, spec.dtype):
        near = np.matmul(by_row, spec[:, :, blk].transpose(1, 0, 2)).transpose(2, 1, 0).copy()
        target[blk] = (near.view(rtype).reshape(-1, 2 * half) @ by_col).reshape(
            -1, len(rows), len(cols))
    return out


def first_nonfinite(named: Iterable[tuple[str, Tensor]]) -> str | None:
    """Name of the first tensor holding NaN/inf, scanning in given order."""
    for name, t in named:
        if not np.isfinite(t.data).all():
            return name
    return None
