"""Capsule primitives: squash, prediction transform, coupling softmax,
agreement update, and the two training losses.

Conventions used throughout:
  u      lower-capsule outputs        [batch, num_lower, dim_lower]
  W      prediction transforms        [num_lower, num_upper, dim_upper, dim_lower]
  u_hat  prediction vectors           [batch, num_lower, num_upper, dim_upper]
  b, c   routing logits / couplings   [batch, num_lower, num_upper]
  s      per-type weighted vote sums  [batch, num_types, num_upper, dim_upper]
  v      upper-capsule outputs        [batch, num_upper, dim_upper]

Types are ``num_types`` contiguous equal lower-index ranges [t*K, (t+1)*K),
K = num_lower / num_types: the primary layer flattens as (type, row, col).
``weighted_sum`` sums each type separately, and ``coupling_from_logits``
normalizes over lower capsules with one segment softmax over the types;
ungrouped, the whole layer is the one type.

``predict`` stores u_hat C-contiguous in [batch, num_lower, num_upper,
dim_upper] order, and the routing ops read it through axis-swapped views
without copying it.  ``weighted_sum`` and ``agreement_update`` defer u_hat's
gradient to the tape as outer-product factor pairs, so it is settled into
one buffer once per backward pass, however many iterations read u_hat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor, as_tensor, softmax_along

MARGIN_UPPER = 0.9        # m+: target length for the present class
MARGIN_LOWER = 0.1        # m-: allowed length for absent classes
ABSENT_WEIGHT = 0.5       # down-weight on absent-class terms
RECON_WEIGHT = 0.0005     # reconstruction share of the total loss


class AxisMode(enum.Enum):
    """Which index the coupling softmax normalizes over."""

    UPPER_PER_LOWER = "upper_per_lower"   # rows over upper capsules sum to 1
    LOWER_PER_UPPER = "lower_per_upper"   # columns over lower capsules sum to 1


@dataclass(frozen=True)
class CapsLayerSpec:
    """Dimensions of one routed capsule layer."""

    num_lower: int
    num_upper: int
    dim_lower: int
    dim_upper: int
    num_types: int
    caps_per_type: int

    def __post_init__(self):
        for name in ("num_lower", "num_upper", "dim_lower", "dim_upper",
                     "num_types", "caps_per_type"):
            if getattr(self, name) < 1:
                raise ValueError(f"CapsLayerSpec.{name} must be positive")
        if self.num_types * self.caps_per_type != self.num_lower:
            raise ValueError(
                f"num_types*caps_per_type = {self.num_types * self.caps_per_type}"
                f" does not equal num_lower = {self.num_lower}")

    @classmethod
    def reference(cls) -> "CapsLayerSpec":
        """The full-size layer: 32 types of 36 eight-dim capsules into 10x16."""
        return cls(num_lower=1152, num_upper=10, dim_lower=8, dim_upper=16,
                   num_types=32, caps_per_type=36)


def _type_size(num_lower: int, num_types: int) -> int:
    """Capsules per type of ``num_lower`` split into ``num_types`` equal types."""
    if num_types < 1 or num_lower % num_types:
        raise ShapeError(f"cannot split {num_lower} lower capsules"
                         f" into {num_types} equal types")
    return num_lower // num_types


def squash(s, axis: int = -1) -> Tensor:
    """Shrink vectors along ``axis`` to length n^2/(1+n^2) < 1, keeping direction.

    The norm in the denominator carries a 1e-9-scale guard so the zero vector
    maps to zero with finite gradients (the bare formula is 0/0 there).
    """
    s = as_tensor(s)
    if not np.isfinite(s.data).all():
        raise NonFiniteError("squash requires finite input")
    n2 = (s * s).sum(axis=axis, keepdims=True)
    # sqrt(n2 + 1e-18) ~= norm + guard; smooth at 0, exact 0.5 scale at norm 1.
    norm = (n2 + 1e-18).sqrt()
    return s * (n2 / ((1.0 + n2) * norm))


def predict(u, weights) -> Tensor:
    """Apply per-pair transforms: u_hat[b,i,j] = W[i,j] @ u[b,i].

    One [B, K] @ [K, J*D] product per lower capsule, batched over the lower
    index and written through a [N, B, J*D] view, so u_hat is C-contiguous.
    """
    u_t, w_t = as_tensor(u), as_tensor(weights)
    if u_t.ndim != 3 or w_t.ndim != 4:
        raise ShapeError(f"predict expects u [b,n,k] and W [n,j,d,k],"
                         f" got {u_t.shape} and {w_t.shape}")
    if u_t.shape[1] != w_t.shape[0] or u_t.shape[2] != w_t.shape[3]:
        raise ShapeError(f"predict shape mismatch: u {u_t.shape} vs W {w_t.shape}")
    batch, n, k = u_t.shape
    _, j, d, _ = w_t.shape
    out = np.empty((batch, n, j, d), dtype=np.result_type(u_t.data, w_t.data))
    np.matmul(u_t.data.swapaxes(0, 1), w_t.data.reshape(n, j * d, k).swapaxes(1, 2),
              out=out.reshape(batch, n, j * d).swapaxes(0, 1))

    def backward(g):
        if w_t.requires_grad:
            w_t._accumulate(np.einsum("bnjd,bnk->njdk", g, u_t.data, optimize=True))
        if u_t.requires_grad:
            u_t._accumulate(np.einsum("njdk,bnjd->bnk", w_t.data, g, optimize=True))

    return Tensor._node(out, (u_t, w_t), backward, "predict")


def coupling_from_logits(logits, axis_mode: AxisMode, num_types: int = 1) -> Tensor:
    """Softmax the routing logits along the configured normalization axis.

    UPPER_PER_LOWER normalizes over upper capsules for each lower capsule;
    the types change nothing there (each row is its own group).
    LOWER_PER_UPPER normalizes over the lower capsules of each of the
    ``num_types`` equal types per upper capsule, one type being the whole
    layer.  That is one tape node whatever the types: their maxima and sums
    are ``reduceat`` over the type starts, spread back over each type's
    capsules by ``repeat``.
    """
    b = as_tensor(logits)
    if b.ndim != 3:
        raise ShapeError(f"routing logits must be 3-d, got {b.shape}")
    if axis_mode is AxisMode.UPPER_PER_LOWER:
        return softmax_along(b, axis=2)
    k = _type_size(b.shape[1], num_types)
    if not np.isfinite(b.data).all():
        raise NonFiniteError("softmax requires finite input")
    starts = np.arange(0, b.shape[1], k)

    def per_type(reduce, x):
        """Each type's reduction over axis 1, repeated over its capsules."""
        return np.repeat(reduce.reduceat(x, starts, axis=1), k, axis=1)

    out = np.exp(b.data - per_type(np.maximum, b.data))
    out /= per_type(np.add, out)

    def backward(g):
        b._accumulate(out * (g - per_type(np.add, g * out)))

    return Tensor._node(out, (b,), backward, "segment_softmax")


def weighted_sum(coupling, predictions, num_types: int = 1) -> Tensor:
    """s[b,t,j] = sum of c[b,i,j] * u_hat[b,i,j] over the lower i of type t.

    The lower index splits into ``num_types`` contiguous equal ranges, so the
    result is [batch, num_types, num_upper, dim_upper]; one type sums the
    whole layer.  The op views c as [B, T, K, J] and u_hat as [B, T, K, J, D]
    (K = N / T).  Its c gradient is written once, through a swapped view of
    a fresh [B, N, J] buffer that c adopts; its u_hat gradient,
    c[b,t,k,j] * g[b,t,j,d], is deferred to the tape as that factor pair.
    """
    c_t, u_t = as_tensor(coupling), as_tensor(predictions)
    if c_t.ndim != 3 or u_t.ndim != 4 or c_t.shape != u_t.shape[:3]:
        raise ShapeError(f"weighted_sum shape mismatch: c {c_t.shape}"
                         f" vs u_hat {u_t.shape}")
    batch, n, j, d = u_t.shape
    k = _type_size(n, num_types)
    cv = c_t.data.reshape(batch, num_types, k, j)
    uv = u_t.data.reshape(batch, num_types, k, j, d)
    # Batched over (b, t, j): [1, K] @ [K, D] on axis-swapped views.
    u_jk = np.swapaxes(uv, -3, -2)
    out = (np.swapaxes(cv, -1, -2)[..., None, :] @ u_jk)[..., 0, :]

    def backward(g):
        if c_t.requires_grad:
            dc = np.empty(c_t.shape, dtype=c_t.data.dtype)
            np.matmul(u_jk, g[..., None],
                      out=np.swapaxes(dc.reshape(cv.shape), -1, -2)[..., None])
            c_t._adopt(dc)
        u_t._defer(cv, g)

    return Tensor._node(out, (c_t, u_t), backward, "weighted_sum")


def agreement_update(logits, predictions, v) -> Tensor:
    """b'[b,i,j] = b[b,i,j] + <u_hat[b,i,j], v[b,j]> for every lower capsule.

    Both products are batched over (b, j) on a [B, J, N, D] view of u_hat;
    the u_hat gradient, g[b,i,j] * v[b,j,d], is deferred to the tape.
    """
    b_t, u_t, v_t = as_tensor(logits), as_tensor(predictions), as_tensor(v)
    if b_t.ndim != 3 or u_t.shape[:3] != b_t.shape or v_t.ndim != 3 \
            or v_t.shape[0] != u_t.shape[0] or v_t.shape[1] != u_t.shape[2] \
            or v_t.shape[2] != u_t.shape[3]:
        raise ShapeError(f"agreement_update shape mismatch: b {b_t.shape},"
                         f" u_hat {u_t.shape}, v {v_t.shape}")
    u_jn = np.swapaxes(u_t.data, 1, 2)
    out = b_t.data + np.matmul(u_jn, v_t.data[..., None])[..., 0].swapaxes(1, 2)

    def backward(g):
        b_t._accumulate(g)
        u_t._defer(g[:, None], v_t.data[:, None])
        if v_t.requires_grad:
            v_t._accumulate((g.swapaxes(1, 2)[..., None, :] @ u_jn)[..., 0, :])

    return Tensor._node(out, (b_t, u_t, v_t), backward, "agreement")


def margin_loss(lengths, labels) -> Tensor:
    """Per-class hinge on capsule lengths, summed over classes, batch mean.

    Present classes are pushed above MARGIN_UPPER, absent ones below
    MARGIN_LOWER with weight ABSENT_WEIGHT; both hinges are squared.
    """
    lengths_t = as_tensor(lengths)
    labels_t = as_tensor(labels)
    if lengths_t.shape != labels_t.shape or lengths_t.ndim != 2:
        raise ShapeError(f"margin_loss expects matching 2-d shapes,"
                         f" got {lengths_t.shape} and {labels_t.shape}")
    _require_one_hot(labels_t.data)
    present = (MARGIN_UPPER - lengths_t).relu()
    absent = (lengths_t - MARGIN_LOWER).relu()
    per_class = labels_t * present * present \
        + ABSENT_WEIGHT * (1.0 - labels_t) * absent * absent
    return per_class.sum(axis=1).mean()


def _require_one_hot(labels: np.ndarray) -> None:
    if not (np.isin(labels, (0.0, 1.0)).all()
            and np.array_equal(labels.sum(axis=1), np.ones(labels.shape[0]))):
        raise ValueError("labels must be one-hot rows")


def reconstruction_loss(decoded, target) -> Tensor:
    """Sum of squared pixel errors per image, averaged over the batch."""
    d_t, t_t = as_tensor(decoded), as_tensor(target)
    if d_t.shape != t_t.shape or d_t.ndim != 2:
        raise ShapeError(f"reconstruction_loss expects matching 2-d shapes,"
                         f" got {d_t.shape} and {t_t.shape}")
    diff = d_t - t_t
    return (diff * diff).sum(axis=1).mean()
