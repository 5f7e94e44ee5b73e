"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op is one ``Tensor`` method or operator (``+``, ``@``, ``.sum``,
``.reshape``, ...), except the module functions ``softmax_along`` and
``conv2d``; each records its inputs and a backward closure on the output
node.  Ops take Tensors: only the operators wrap an array or number operand,
as a constant leaf, and other arrays become Tensors where they enter
(``network.forward`` wraps the images, ``routing.route`` u_hat).  An op
whose gradient at each input is a local function of the output's
(the elementwise ops, ``@``, ``.sum``, ``.mean``, ``.max``, ``.reshape``,
``.transpose``, ``capsule.predict``) passes one such function per input to
``_local_node``, whose one backward sums each back over the broadcast axes
into the inputs that need it; an op that adopts or defers (see below) passes
its own closure to ``Tensor._node``.  ``Tensor.backward`` builds a
:class:`GradTape` (a topologically ordered list of nodes) and walks it in
reverse.  Broadcasting follows trailing-dimension rules only: aligned from the
right, a dimension pairs if the sizes are equal or one of them is 1.

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

Where numpy's OpenBLAS runs one thread, ``conv2d`` runs its loops with enough
work on a thread pool (``_each``): their pieces are fixed by shape and write
their own slices with the serial arithmetic, so no pool size changes a byte.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import weakref
from typing import Callable, Sequence

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


class _Released:
    """The ``data`` of a tensor whose array ``conv2d(..., donate=True)``
    released: it keeps the array's shape and dtype, holds no bytes, and any
    read of its values raises ``RuntimeError``."""

    __slots__ = ("shape", "dtype", "ndim", "size")
    nbytes = 0

    def __init__(self, array: np.ndarray):
        self.shape, self.dtype, self.ndim, self.size = (array.shape, array.dtype,
                                                        array.ndim, array.size)

    def _read(self, *args):
        raise RuntimeError(f"this {self.shape} tensor's data was released: it was"
                           " donated to conv2d, so nothing may read it afterwards")

    # np.asarray and every ufunc call __array__; the rest covers methods
    # (reshape, sum, ...), indexing and comparisons with a scalar
    __array__ = __getattr__ = __getitem__ = __lt__ = __le__ = __gt__ = __ge__ = _read


class Tensor:
    """A dense n-dimensional array participating in a gradient tape.

    Every tensor's ``data`` is a row-major float64 ndarray (float32 allowed
    for non-acceptance use), 0-d for a full reduction.
    Operations never write their inputs' ``data``; a backward pass writes
    ``grad``, and an optimizer step (``network.Adam.step``) updates a
    parameter's ``data`` in place.  A ``conv2d`` that was handed ``x`` with
    ``donate=True`` replaces its ``data`` with a ``_Released`` placeholder.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op",
                 "_pending", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        self.data = arr if arr.dtype.char in "fd" else arr.astype(DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._pending: list[tuple[np.ndarray, np.ndarray]] | None = None

    @classmethod
    def _node(cls, data: np.ndarray, parents: Sequence["Tensor"],
              backward_fn: Callable[[np.ndarray], None] | None, op: str) -> "Tensor":
        """Create an interior graph node (for ``_local_node`` and own-closure ops)."""
        out = cls(data)
        out._op = op
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad, out._parents, out._backward_fn = True, tuple(parents), backward_fn
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
        released = ", released" if isinstance(self.data, _Released) else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad}{released})"

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

    # -- operations -------------------------------------------------------

    # numpy defers to the reflected operators, so an ndarray on the left
    # gives one node, not an object array of them.
    __array_ufunc__ = None

    def __add__(self, other) -> "Tensor":
        a, b = _operands(self, other)
        return _local_node("add", a.data + b.data, (a, b), (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        a, b = _operands(self, other)
        return _local_node("sub", a.data - b.data, (a, b), (lambda g: g, lambda g: -g))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.__sub__(other, self)

    def __mul__(self, other) -> "Tensor":
        a, b = _operands(self, other)
        return _local_node("mul", a.data * b.data, (a, b),
                           (lambda g: g * b.data, lambda g: g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = _operands(self, other)
        return _local_node("div", a.data / b.data, (a, b),
                           (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.__truediv__(other, self)

    def __neg__(self) -> "Tensor":
        return _local_node("neg", -self.data, (self,), (lambda g: -g,))

    def __matmul__(self, other) -> "Tensor":
        """Batched matrix product; leading dimensions broadcast."""
        a, b = self, as_tensor(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions disagree: {a.shape} and {b.shape}")
        _broadcast_shape(a.shape[:-2], b.shape[:-2])
        return _local_node("matmul", np.matmul(a.data, b.data), (a, b),
                           (lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
                            lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        axis = _normalize_axis(axis, self.ndim)
        return _local_node("reduce_sum", self.data.sum(axis=axis, keepdims=keepdims), (self,),
                           (lambda g: self._spread(g, axis, keepdims),))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        axis = _normalize_axis(axis, self.ndim)
        count = self.data.size if axis is None else self.shape[axis]
        return _local_node("reduce_mean", self.data.mean(axis=axis, keepdims=keepdims), (self,),
                           (lambda g: self._spread(g, axis, keepdims) / count,))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """The gradient goes to the first occurrence of the maximum along
        ``axis`` (lowest index wins ties), or of the flattened tensor."""
        axis = _normalize_axis(axis, self.ndim)

        def grad(g):
            x, along = (self.data.reshape(-1), 0) if axis is None else (self.data, axis)
            hit = x == x.max(axis=along, keepdims=True)
            return (hit & (np.cumsum(hit, axis=along) == 1)).reshape(self.shape) * \
                self._spread(g, axis, keepdims)

        return _local_node("reduce_max", self.data.max(axis=axis, keepdims=keepdims), (self,),
                           (grad,))

    def _spread(self, g: np.ndarray, axis: int | None, keepdims: bool) -> np.ndarray:
        """``g``, the gradient at a reduction of this tensor along ``axis``
        (every axis when None), broadcast back over this tensor."""
        if axis is None:
            g = g.reshape((1,) * self.ndim)
        elif not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, self.shape)

    def reshape(self, *shape) -> "Tensor":
        return _local_node("reshape", self.data.reshape(shape), (self,),
                           (lambda g: g.reshape(self.shape),))

    def transpose(self, *axes) -> "Tensor":
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(f"axes {axes} is not a permutation for shape {self.shape}")
        inverse = tuple(int(i) for i in np.argsort(axes))
        return _local_node("transpose", np.ascontiguousarray(self.data.transpose(axes)),
                           (self,), (lambda g: g.transpose(inverse),))

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _local_node("exp", out_data, (self,), (lambda g: g * out_data,))

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return _local_node("sqrt", out_data, (self,), (lambda g: g * (0.5 / out_data),))

    def relu(self) -> "Tensor":
        return _local_node("relu", np.maximum(self.data, 0.0), (self,),
                           (lambda g: g * (self.data > 0.0),))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return _local_node("sigmoid", out_data, (self,),
                           (lambda g: g * out_data * (1.0 - out_data),))


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

    Each pair's vec holds T types or one (``weighted_sum``'s grouped or
    ungrouped sums, ``agreement_update``'s one), so each (b, t, j) is one
    [K, P] @ [P, D] product over the P stacked pairs, written through a view
    of the result.
    """
    batch, n, j, d = shape
    types = max(c.shape[1] for c, _ in pairs)
    k = n // types
    coef = np.empty((batch, types, j, len(pairs), k), dtype=dtype)
    vec = np.empty((batch, types, j, len(pairs), d), dtype=dtype)
    for p, (c, v) in enumerate(pairs):
        coef[:, :, :, p] = c.reshape(batch, types, k, j).swapaxes(2, 3)
        vec[:, :, :, p] = v
    out = np.empty(shape, dtype=dtype)
    np.matmul(coef.swapaxes(3, 4), vec, out=out.reshape(batch, types, k, j, d).swapaxes(2, 3))
    return out


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors, checked to broadcast; a Python int or float
    takes the other operand's dtype, so a float32 tensor stays float32."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        b = Tensor(b, dtype=a.data.dtype)
    elif isinstance(b, Tensor) and isinstance(a, (int, float)):
        a = Tensor(a, dtype=b.data.dtype)
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    return a, b


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


def _normalize_axis(axis: int | None, ndim: int) -> int | None:
    if axis is None:   # every axis
        return None
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} invalid for {ndim}-dimensional tensor")
    return axis % ndim


def _local_node(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
                grads: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The node of an op whose gradient at input i is local: ``grads[i](g)``,
    summed back over the axes that input was broadcast along.  Inputs that
    need no gradient are skipped, so their terms are never computed.  A
    term that is a fresh array is adopted; ``g`` itself or a view of it
    (``+``, ``.reshape``, ``.transpose``, ``.sum``) is copied."""

    def backward(g):
        for t, grad in zip(inputs, grads):
            if t.requires_grad:
                term = _unbroadcast(grad(g), t.shape)
                if term is not g and isinstance(term, np.ndarray) and term.base is None:
                    t._adopt(term)
                else:
                    t._accumulate(term)

    return Tensor._node(out_data, inputs, backward, op)


# -- softmax -----------------------------------------------------------------


def type_size(n: int, num_types: int) -> int:
    """Length of each run when ``n`` splits into ``num_types`` equal types."""
    if num_types < 1 or n % num_types:
        raise ShapeError(f"cannot split {n} capsules into {num_types} equal types")
    return n // num_types


def softmax_along(t: Tensor, axis: int, groups: int = 1) -> Tensor:
    """Softmax normalized along ``axis``, stabilized by max subtraction.

    Each of ``groups`` equal contiguous runs of ``axis`` is normalized on its
    own, the whole axis by default: the op works on a view with that axis
    split into (groups, run length), so it is one tape node however many
    runs there are.
    """
    axis = _normalize_axis(axis, t.ndim)
    runs = t.shape[:axis] + (groups, type_size(t.shape[axis], groups)) + t.shape[axis + 1:]
    if not np.isfinite(t.data).all():
        raise NonFiniteError("softmax_along requires finite input")
    x = t.data.reshape(runs)
    out = x - x.max(axis=axis + 1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis + 1, keepdims=True)

    def backward(g):
        g = g.reshape(runs)
        dx = g - (g * out).sum(axis=axis + 1, keepdims=True)
        dx *= out
        t._adopt(dx.reshape(t.shape))

    return Tensor._node(out.reshape(t.shape), (t,), backward, "softmax")


# -- convolution -------------------------------------------------------------


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, bias: Tensor | None = None,
           relu: bool = False, donate: bool = False) -> Tensor:
    """2-D cross-correlation of ``x`` [B,C,H,W] with ``kernel`` [O,C,kh,kw],
    plus ``bias`` [O] per output channel when given, clamped at zero when
    ``relu`` is set.

    ``donate`` hands ``x`` over to the call, recording or not: its ``data``
    is released once the input's spectrum or the last columns are built, so
    its memory is free before the rest of the convolution runs.  The
    placeholder left in ``x.data`` keeps the shape and dtype and counts 0
    ``nbytes``; reading its values raises ``RuntimeError``.  No conv2d
    backward reads its input's ``data``, and with ``relu`` it keeps only the
    bool mask of the positive outputs, so the output can be donated.

    Output spatial size is floor((H - kh)/stride) + 1 (same for width): the
    windows start at the input's edge.  One of two algorithms computes the
    convolution's values and a function that adds the gradients at ``x`` and
    ``kernel``; this call adds the bias and takes the clamp in place on those
    values, and owns the one tape node, whose output has the values of
    ``(conv2d(x, kernel) + bias.reshape(1, -1, 1, 1)).relu()``.  Its backward
    zeroes the gradient where that output was not positive (NaN included),
    sums it over batch and positions into the bias gradient, then hands it
    to the algorithm.  The call's geometry is validated and worked out once
    and handed to ``_conv2d_costs``, which counts both algorithms'
    multiplications plus bytes moved, with the backward work of every
    gradient that will be recorded; the cheaper one runs.

    * im2col (``_conv2d_im2col``): a column buffer of every window times the
      kernel, per cache-sized block of images, on the pool when it has the
      work (see the module docstring).  The input gradient is built one
      output position at a time, always on the calling thread.
    * spectral (``_conv2d_spectral``): one channel product per frequency of
      the half spectrum of the grid the windows read, with every transform
      done as a pair of 1-D DFT-matrix products over cache-sized blocks of
      signals; the blocks and the products' ranges of frequencies go to the
      pool when they have the work.  Results differ from im2col's by
      rounding (about 1e-15 of the largest value in float64).  A NaN or
      infinity at a point that some window reads reaches every output of
      its image; points no window reads reach none.
    """
    geometry = _conv2d_geometry(x.shape, kernel.shape, stride)
    if bias is not None and bias.shape != kernel.shape[:1]:
        raise ShapeError(f"conv2d bias {bias.shape} does not match kernel {kernel.shape}")
    k_grad = _grad_enabled and kernel.requires_grad
    spectral, im2col = _conv2d_costs(x.shape, kernel.shape, geometry,
                                     _grad_enabled and x.requires_grad, k_grad)
    out, grads = (_conv2d_spectral if spectral < im2col else _conv2d_im2col)(
        x, kernel, geometry, k_grad, donate)
    if bias is not None:
        out += bias.data.reshape(-1, 1, 1)
    if relu:
        np.maximum(out, 0.0, out=out)
    mask = None

    def backward(g):
        if mask is not None:
            g = g * mask
        if bias is not None and bias.requires_grad:
            bias._adopt(g.sum(axis=(0, 2, 3)))
        grads(g)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    node = Tensor._node(out, parents, backward, "conv2d")
    if relu and node.requires_grad:
        mask = out > 0.0
    return node


def _conv2d_geometry(x_shape: tuple[int, ...], k_shape: tuple[int, ...], stride: int) -> tuple:
    """A conv2d call's validated output height and width, the hg x wg grid
    its windows read (the input's first hg rows and wg columns), and the
    call's stride."""
    if len(x_shape) != 4 or len(k_shape) != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x_shape} and {k_shape}")
    if k_shape[1] != x_shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x_shape} vs kernel {k_shape}")
    if stride < 1:
        raise ShapeError(f"conv2d needs stride >= 1, got {stride}")
    h, w = x_shape[2:]
    kh, kw = k_shape[2:]
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kh}x{kw} larger than input {h}x{w} (shape {x_shape})")
    h_out, w_out = (h - kh) // stride + 1, (w - kw) // stride + 1
    return h_out, w_out, (h_out - 1) * stride + kh, (w_out - 1) * stride + kw, stride


def _conv2d_costs(x_shape: tuple[int, ...], k_shape: tuple[int, ...], geometry: tuple,
                  x_grad: bool, k_grad: bool) -> tuple[int, int]:
    """The costs of ``_conv2d_spectral`` and of ``_conv2d_im2col`` at these
    shapes and ``_conv2d_geometry``.

    Each side counts the products of its matrix multiplications (a real
    times a real counts 1, a real times a complex 2 and a complex times a
    complex 4) plus one per byte that each of its stages reads or writes
    (float64 and complex128 sizes).  The bytes decide the small batches:
    there the kernel's many short transforms and the channel products'
    reads of its spectrum are bound by moving memory, not by multiplying.
    ``x_grad`` and ``k_grad`` say which gradients will be recorded, adding
    their backward work to both sides.
    """
    h_out, w_out, hg, wg, _ = geometry
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

    inputs = transform(hg, wg, batch * c_in)
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
    return spectral, (column * (c_out * (1 + x_grad + k_grad) + 16 + 8 * k_grad + 32 * x_grad)
                      + 24 * positions * c_out)


def _conv2d_im2col(x: Tensor, kernel: Tensor, geometry: tuple, k_grad: bool, release: bool
                   ) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """conv2d as the windows' column buffer times the kernel: the [B, O, h,
    w] values, and the function of the gradient at them that adds the
    gradients at ``x`` and ``kernel``.  The product goes per block of images
    whose values take about ``_BLOCK_BYTES``, each transposed in cache into
    its images' values.  Only when ``k_grad`` is the buffer, the layer's
    largest allocation, built whole, and kept; ``release`` releases
    ``x.data`` once it is built or, without it, once every block is done."""
    h_out, w_out, *_, stride = geometry
    batch, c_in = x.shape[:2]
    c_out, _, kh, kw = kernel.shape
    positions = h_out * w_out

    def columns(images: slice) -> np.ndarray:   # a row per output position
        windows = sliding_window_view(x.data[images], (kh, kw), axis=(2, 3))
        return np.ascontiguousarray(windows[:, :, ::stride, ::stride].transpose(
            0, 2, 3, 1, 4, 5)).reshape(-1, c_in * kh * kw)

    kept_cols = columns(slice(None)) if k_grad else None
    if release and k_grad:
        x.data = _Released(x.data)
    w_mat = kernel.data.reshape(c_out, -1)
    out = np.empty((batch, c_out, h_out, w_out), np.result_type(x.data.dtype, w_mat.dtype))

    def block(images):
        cols = (columns(images) if kept_cols is None
                else kept_cols[images.start * positions:images.stop * positions])
        out[images] = (cols @ w_mat.T).reshape(-1, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    _each(block, _signal_blocks(batch, c_out * positions, out.dtype), out.size * w_mat.shape[1])
    if release and not k_grad:
        x.data = _Released(x.data)

    def grads(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if kernel.requires_grad:
            kernel._adopt((g_mat.T @ kept_cols).reshape(kernel.shape))
        if x.requires_grad:
            g_pos = g_mat.reshape(batch, h_out, w_out, c_out)
            dx = np.zeros(x.shape, dtype=g.dtype)
            for i in range(h_out):
                for j in range(w_out):
                    dx[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += \
                        (g_pos[:, i, j] @ w_mat).reshape(batch, c_in, kh, kw)
            x._adopt(dx)

    return out, grads


def _conv2d_spectral(x: Tensor, kernel: Tensor, geometry: tuple, k_grad: bool, release: bool
                     ) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """conv2d as per-frequency channel products on the grid the windows read:
    the [B, O, h, w] values, and the function of the gradient at them that
    adds the gradients at ``x`` and ``kernel``.

    The grid is hg x wg, hg = (h_out-1)*stride + kh (wg likewise).  No window
    wraps around it, so circular correlations on it equal the direct ones,
    and input points past it, which no window reads, get a zero gradient.
    With X, K and G the spectra of the input's points on the grid, the
    kernel's taps and the output gradient at its strided points, the
    output's spectrum is X conj(K), the kernel gradient's sum_b conj(G) X and
    the input gradient's G K: channel products at each of the F = hg *
    (wg//2 + 1) half-spectrum frequencies, in the inputs' complex dtype.
    Every transform is two 1-D DFT-matrix products per cache-sized block of
    signals (``_spectrum`` and ``_values_at``).  X is kept for the kernel
    gradient only when ``k_grad``.  K is never whole: it is built per block
    of ``batch`` output channels for the forward and of ``batch`` input
    channels for the input gradient.  Neither is the forward's product
    [F, B, O]: each block's [F, B, ob] is turned into its output channels'
    values before the next is formed, while the input gradient's blocks are
    written into the columns of one G K.  ``release`` releases ``x.data``
    once X is built.
    """
    h_out, w_out, hg, wg, stride = geometry
    batch, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    grid, freqs = (hg, wg), hg * (wg // 2 + 1)
    ctype = np.result_type(x.data.dtype, kernel.data.dtype, np.complex64)
    rtype = np.finfo(ctype).dtype
    out_rows, out_cols = np.arange(h_out) * stride, np.arange(w_out) * stride
    tap_rows, tap_cols = np.arange(kh), np.arange(kw)
    x_rows, x_cols = np.arange(hg), np.arange(wg)

    # A signal reflected through the origin has the conjugate spectrum, so
    # placing the input at the negated points gives conj(X), [F, B, C], and
    # conj(X conj(K)) = conj(X) K needs no conjugated copy of either.
    x_conj = _spectrum(x.data.reshape(batch * c_in, h, w)[:, :hg, :wg], -x_rows, -x_cols,
                       grid, ctype).reshape(freqs, batch, c_in)
    if release:
        x.data = _Released(x.data)

    def taps_spectrum(taps: np.ndarray) -> np.ndarray:
        # [F, o, c] from o x c taps [o, c, kh, kw]
        return _spectrum(taps.reshape(-1, kh, kw), tap_rows, tap_cols, grid,
                         ctype).reshape(freqs, *taps.shape[:2])

    # A block of ``batch`` channels is no larger than X (or G, for the
    # input gradient), and the extra reads of X and G it costs are no more
    # bytes than the kernel's spectrum that is never held.
    out = np.empty((batch, c_out, h_out, w_out), dtype=rtype)
    for o in range(0, c_out, batch):
        _values_at(_matmul(x_conj, taps_spectrum(kernel.data[o:o + batch]).transpose(0, 2, 1)),
                   out_rows, out_cols, grid, out[:, o:o + batch])
    kept_x = x_conj if k_grad else None

    def grads(g):
        # Each spectrum is dropped once its last product is formed.
        nonlocal kept_x
        g_spec = _spectrum(g.reshape(batch * c_out, h_out, w_out), out_rows, out_cols,
                           grid, ctype).reshape(freqs, batch, c_out)
        if kernel.requires_grad:
            dk_spec, kept_x = _matmul(g_spec.transpose(0, 2, 1), kept_x), None
            kernel._adopt(_values_at(dk_spec, tap_rows, tap_cols, grid,
                                     np.empty(kernel.shape, dtype=rtype)))
            del dk_spec
        if x.requires_grad:
            # G K is the spectrum of the input gradient, so it is the conjugate
            # spectrum of that gradient reflected: read it at the negated points.
            dx_spec = np.empty((freqs, batch, c_in), dtype=ctype)
            for c in range(0, c_in, batch):
                _matmul(g_spec, taps_spectrum(kernel.data[:, c:c + batch]),
                        dx_spec[:, :, c:c + batch])
            del g_spec
            dx = np.empty(x.shape, dtype=rtype)
            dx[:, :, hg:] = 0.0
            dx[:, :, :, wg:] = 0.0
            x._adopt(_values_at(dx_spec, -x_rows, -x_cols, grid, dx))

    return out, grads


# Bytes per block: a transform block's spectra, or an im2col block's values,
# fill about this many, so every stage's operands stay in cache.  Sweeping
# 0.5-8 MiB at the default primary conv moved nothing beyond the host's noise.
_BLOCK_BYTES = 2 << 20


def _signal_blocks(signals: int, freqs: int, ctype) -> list[slice]:
    """Consecutive slices of ``signals`` (or images, or frequencies) whose
    ``freqs`` values each in ``ctype`` take about ``_BLOCK_BYTES`` (at least one)."""
    step = max(1, _BLOCK_BYTES // (freqs * np.dtype(ctype).itemsize))
    return [slice(m0, min(m0 + step, signals)) for m0 in range(0, signals, step)]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out)`` for [F, m, k] and [F, k, n], in blocks of F (``_each``)."""
    out = np.empty((*a.shape[:2], b.shape[2]), np.result_type(a, b)) if out is None else out
    _each(lambda f: np.matmul(a[f], b[f], out=out[f]),
          _signal_blocks(len(out), out[0].size, out.dtype), 4 * out.size * a.shape[2])
    return out


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

    def block(blk):
        near = (values[blk].reshape(-1, len(cols)) @ by_col).view(ctype)
        near = near.reshape(-1, len(rows) * half).T.copy()
        spec[:, :, blk] = (by_row @ near.reshape(len(rows), -1)).reshape(hg, half, -1)

    _each(block, _signal_blocks(len(values), hg * half, ctype),
          len(values) * len(rows) * half * (2 * len(cols) + 4 * hg))
    return spec.reshape(hg * half, -1)


def _values_at(spec_conj: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               grid: tuple[int, int], out: np.ndarray) -> np.ndarray:
    """``out`` [...M, H, W] with ``out[..., :R, :C]`` set to the M real
    signals whose conjugate half spectra on ``grid`` are ``spec_conj``
    [F, ...M], at grid rows ``rows`` [R] and columns ``cols`` [C].  ``out``
    may be a view with any strides, such as a block of another array's
    channels.

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
    target = out[..., :len(rows), :len(cols)]

    def block(blk):
        near = np.matmul(by_row, spec[:, :, blk].transpose(1, 0, 2)).transpose(2, 1, 0).copy()
        target[np.unravel_index(np.arange(blk.start, blk.stop), target.shape[:-2])] = (
            near.view(rtype).reshape(-1, 2 * half) @ by_col).reshape(-1, len(rows), len(cols))

    _each(block, _signal_blocks(spec.shape[-1], hg * half, spec.dtype),
          spec.shape[-1] * len(rows) * half * (2 * len(cols) + 4 * hg))
    return out


# -- the pool ----------------------------------------------------------------

# A loop goes to the pool only at this many multiplications (a complex one 4):
# over a compact train step's largest at batch 16 (25M), under a default one's.
_POOL_FLOOR = 3 * 10**7
_POOL_CAP = 3   # workers; each allocates from its own arena, which keeps freed pages
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = _blas_threads = None   # made at first use: importing gcaps skips concurrent.futures
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def _each(run: Callable[[slice], None], pieces: list[slice], work: int) -> None:
    """``run(piece)`` for each piece, which calls numpy only and writes its own slice; with
    several, ``work`` multiplications at the floor and BLAS on one thread, on the pool too."""
    global _POOL, _blas_threads
    if _blas_threads is None:   # numpy's OpenBLAS thread count through ctypes; 0 without one
        blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)   # dlsym searches what it links
        _blas_threads = next((getattr(blas, name) for name in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads") if hasattr(blas, name)), lambda: 0)
    pooled = len(pieces) > 1 and work >= _POOL_FLOOR and _blas_threads() == 1
    if pooled and _POOL is None and _CORES > 1:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(min(_CORES - 1, _POOL_CAP))
    pool, taken = _POOL if pooled else None, itertools.count()

    def take():   # each piece once: a count's next() runs under the GIL throughout
        while (i := next(taken)) < len(pieces):
            run(pieces[i])

    helpers = [pool.submit(take) for _ in range(min(len(pieces) - 1, _POOL_CAP))] if pool else []
    take()
    for helper in helpers:
        helper.result()
