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
K = caps_per_type and num_lower = num_types * K: the primary layer flattens
as (type, row, col).
``weighted_sum`` sums each type separately, and ``coupling_from_logits``
normalizes over the lower capsules of each type with one ``softmax_along``
over that axis split into types; ungrouped, the whole layer is the one type.

``predict`` stores u_hat C-contiguous in [batch, num_lower, num_upper,
dim_upper] order, and the routing ops read it through axis-swapped views
without copying it.  ``weighted_sum`` and ``agreement_update`` defer u_hat's
gradient to the tape as outer-product factor pairs, so it is settled into
one buffer once per backward pass, however many iterations read u_hat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor, _local_node, softmax_along, type_size

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

    num_upper: int
    dim_lower: int
    dim_upper: int
    num_types: int
    caps_per_type: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"CapsLayerSpec.{f.name} must be positive")

    @property
    def num_lower(self) -> int:
        return self.num_types * self.caps_per_type

    @classmethod
    def reference(cls) -> "CapsLayerSpec":
        """The full-size layer: 32 types of 36 eight-dim capsules into 10x16."""
        return cls(num_upper=10, dim_lower=8, dim_upper=16, num_types=32, caps_per_type=36)


def squash(s: Tensor) -> Tensor:
    """Shrink vectors along the last axis to length n^2/(1+n^2) < 1, keeping direction.

    The norm in the denominator carries a 1e-9-scale guard so the zero vector
    maps to zero with finite gradients (the bare formula is 0/0 there).
    """
    if not np.isfinite(s.data).all():
        raise NonFiniteError("squash requires finite input")
    n2 = (s * s).sum(axis=-1, keepdims=True)
    # sqrt(n2 + 1e-18) ~= norm + guard; smooth at 0, exact 0.5 scale at norm 1.
    norm = (n2 + 1e-18).sqrt()
    return s * (n2 / ((1.0 + n2) * norm))


def predict(u: Tensor, w: Tensor) -> Tensor:
    """Apply per-pair transforms: u_hat[b,i,j] = W[i,j] @ u[b,i].

    One [B, K] @ [K, J*D] product per lower capsule, batched over the lower
    index and written through a [N, B, J*D] view, so u_hat is C-contiguous.
    """
    if u.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"predict expects u [b,n,k] and W [n,j,d,k],"
                         f" got {u.shape} and {w.shape}")
    if u.shape[1] != w.shape[0] or u.shape[2] != w.shape[3]:
        raise ShapeError(f"predict shape mismatch: u {u.shape} vs W {w.shape}")
    batch, n, k = u.shape
    _, j, d, _ = w.shape
    out = np.empty((batch, n, j, d), dtype=np.result_type(u.data, w.data))
    np.matmul(u.data.swapaxes(0, 1), w.data.reshape(n, j * d, k).swapaxes(1, 2),
              out=out.reshape(batch, n, j * d).swapaxes(0, 1))
    return _local_node("predict", out, (u, w),
                       (lambda g: np.einsum("njdk,bnjd->bnk", w.data, g, optimize=True),
                        lambda g: np.einsum("bnjd,bnk->njdk", g, u.data, optimize=True)))


def coupling_from_logits(b: Tensor, axis_mode: AxisMode, num_types: int = 1) -> Tensor:
    """Softmax the routing logits along the configured normalization axis.

    UPPER_PER_LOWER normalizes over upper capsules for each lower capsule;
    the types change nothing there (each row is its own group).
    LOWER_PER_UPPER normalizes over the lower capsules of each of the
    ``num_types`` equal types per upper capsule, one type being the whole
    layer.  Either way it is one ``softmax_along`` node.
    """
    if b.ndim != 3:
        raise ShapeError(f"routing logits must be 3-d, got {b.shape}")
    if axis_mode is AxisMode.UPPER_PER_LOWER:
        return softmax_along(b, axis=2)
    return softmax_along(b, axis=1, groups=num_types)


def weighted_sum(c: Tensor, u_hat: Tensor, num_types: int = 1) -> Tensor:
    """s[b,t,j] = sum of c[b,i,j] * u_hat[b,i,j] over the lower i of type t.

    The lower index splits into ``num_types`` contiguous equal ranges, so the
    result is [batch, num_types, num_upper, dim_upper]; one type sums the
    whole layer.  The op views c as [B, T, K, J] and u_hat as [B, T, K, J, D]
    (K = N / T).  Its c gradient is written once, through a swapped view of
    a fresh [B, N, J] buffer that c adopts; its u_hat gradient,
    c[b,t,k,j] * g[b,t,j,d], is deferred to the tape as that factor pair.
    """
    if c.ndim != 3 or u_hat.ndim != 4 or c.shape != u_hat.shape[:3]:
        raise ShapeError(f"weighted_sum shape mismatch: c {c.shape}"
                         f" vs u_hat {u_hat.shape}")
    batch, n, j, d = u_hat.shape
    k = type_size(n, num_types)
    cv = c.data.reshape(batch, num_types, k, j)
    uv = u_hat.data.reshape(batch, num_types, k, j, d)
    # Batched over (b, t, j): [1, K] @ [K, D] on axis-swapped views.
    u_jk = np.swapaxes(uv, -3, -2)
    out = (np.swapaxes(cv, -1, -2)[..., None, :] @ u_jk)[..., 0, :]

    def backward(g):
        if c.requires_grad:
            dc = np.empty(c.shape, dtype=c.data.dtype)
            np.matmul(u_jk, g[..., None],
                      out=np.swapaxes(dc.reshape(cv.shape), -1, -2)[..., None])
            c._adopt(dc)
        u_hat._defer(cv, g)

    return Tensor._node(out, (c, u_hat), backward, "weighted_sum")


def agreement_update(b: Tensor, u_hat: Tensor, v: Tensor) -> Tensor:
    """b'[b,i,j] = b[b,i,j] + <u_hat[b,i,j], v[b,j]> for every lower capsule.

    Both products are batched over (b, j) on a [B, J, N, D] view of u_hat;
    the u_hat gradient, g[b,i,j] * v[b,j,d], is deferred to the tape.
    """
    if b.ndim != 3 or u_hat.shape[:3] != b.shape or v.shape != (u_hat.shape[0], *u_hat.shape[2:]):
        raise ShapeError(f"agreement_update shape mismatch: b {b.shape},"
                         f" u_hat {u_hat.shape}, v {v.shape}")
    u_jn = np.swapaxes(u_hat.data, 1, 2)
    out = b.data + np.matmul(u_jn, v.data[..., None])[..., 0].swapaxes(1, 2)

    def backward(g):
        b._accumulate(g)
        u_hat._defer(g[:, None], v.data[:, None])
        if v.requires_grad:
            v._accumulate((g.swapaxes(1, 2)[..., None, :] @ u_jn)[..., 0, :])

    return Tensor._node(out, (b, u_hat, v), backward, "agreement")


def margin_loss(lengths: Tensor, labels: Tensor) -> Tensor:
    """Per-class hinge on capsule lengths, summed over classes, batch mean.

    Present classes are pushed above MARGIN_UPPER, absent ones below
    MARGIN_LOWER with weight ABSENT_WEIGHT; both hinges are squared.
    """
    if lengths.shape != labels.shape or lengths.ndim != 2:
        raise ShapeError(f"margin_loss expects matching 2-d shapes,"
                         f" got {lengths.shape} and {labels.shape}")
    _require_one_hot(labels.data)
    present = (MARGIN_UPPER - lengths).relu()
    absent = (lengths - MARGIN_LOWER).relu()
    per_class = labels * present * present \
        + ABSENT_WEIGHT * (1.0 - labels) * absent * absent
    return per_class.sum(axis=1).mean()


def _require_one_hot(labels: np.ndarray) -> None:
    if not (np.isin(labels, (0.0, 1.0)).all()
            and np.array_equal(labels.sum(axis=1), np.ones(labels.shape[0]))):
        raise ValueError("labels must be one-hot rows")


def reconstruction_loss(decoded: Tensor, target: Tensor) -> Tensor:
    """Sum of squared pixel errors per image, averaged over the batch."""
    if decoded.shape != target.shape or decoded.ndim != 2:
        raise ShapeError(f"reconstruction_loss expects matching 2-d shapes,"
                         f" got {decoded.shape} and {target.shape}")
    diff = decoded - target
    return (diff * diff).sum(axis=1).mean()
