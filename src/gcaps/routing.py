"""Dynamic routing-by-agreement in four configurations.

A RoutingConfig is the cross product of two choices:

  softmax_axis   UPPER_PER_LOWER (couplings of one lower capsule sum to 1
                 across upper capsules) or LOWER_PER_UPPER (couplings into
                 one upper capsule sum to 1 across lower capsules);
  grouping       UNGROUPED (one routing pool) or BY_TYPE (each capsule type
                 is pooled separately and the per-type outputs are combined
                 by an outer squash).

The four combinations give initial couplings of 1/num_upper, 1/num_lower,
1/num_upper, and 1/caps_per_type respectively; the configured iteration
count unrolls into the differentiable graph, so gradients flow through
every coupling update.  ``route`` hands back each iteration's couplings,
from which the analysis harness measures how fast they move.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .capsule import (
    AxisMode,
    CapsLayerSpec,
    agreement_update,
    coupling_from_logits,
    squash,
    weighted_sum,
)
from .tensor import ShapeError, Tensor, as_tensor


class Grouping(enum.Enum):
    UNGROUPED = "ungrouped"
    BY_TYPE = "by_type"


# name -> (softmax_axis, grouping); short labels follow the curve-label
# convention used in the experiment reports: b / bc / o / oc.
_VARIANTS = {
    "alg1": (AxisMode.UPPER_PER_LOWER, Grouping.UNGROUPED, "b"),
    "alg2": (AxisMode.LOWER_PER_UPPER, Grouping.UNGROUPED, "bc"),
    "alg3": (AxisMode.UPPER_PER_LOWER, Grouping.BY_TYPE, "o"),
    "alg4": (AxisMode.LOWER_PER_UPPER, Grouping.BY_TYPE, "oc"),
}


@dataclass(frozen=True)
class RoutingConfig:
    """One point in the routing design space, plus the iteration budget."""

    softmax_axis: AxisMode
    grouping: Grouping
    iterations: int = 3

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    def to_manifest(self) -> dict[str, str]:
        return {"softmax_axis": self.softmax_axis.value, "grouping": self.grouping.value,
                "iterations": str(self.iterations)}

    @classmethod
    def from_manifest(cls, manifest: dict[str, str]) -> "RoutingConfig":
        return cls(softmax_axis=AxisMode(manifest["softmax_axis"]),
                   grouping=Grouping(manifest["grouping"]),
                   iterations=int(manifest["iterations"]))

    @classmethod
    def from_name(cls, name: str, iterations: int = iterations) -> "RoutingConfig":
        """The named variant; ``iterations`` defaults to the field's default."""
        if name not in _VARIANTS:
            raise ValueError(f"unknown routing variant {name!r};"
                             f" expected one of {sorted(_VARIANTS)}")
        axis, grouping, _ = _VARIANTS[name]
        return cls(softmax_axis=axis, grouping=grouping, iterations=iterations)

    @property
    def algorithm_number(self) -> int:
        grouped = self.grouping is Grouping.BY_TYPE
        if self.softmax_axis is AxisMode.UPPER_PER_LOWER:
            return 3 if grouped else 1
        return 4 if grouped else 2

    @property
    def name(self) -> str:
        return f"alg{self.algorithm_number}"

    @property
    def label(self) -> str:
        return _VARIANTS[self.name][2]


def initial_coupling(spec: CapsLayerSpec, config: RoutingConfig) -> float:
    """The uniform coupling value at zero logits: 1/(normalization-group size)."""
    if config.softmax_axis is AxisMode.UPPER_PER_LOWER:
        return 1.0 / spec.num_upper
    if config.grouping is Grouping.BY_TYPE:
        return 1.0 / spec.caps_per_type
    return 1.0 / spec.num_lower


def route(u_hat, spec: CapsLayerSpec, config: RoutingConfig):
    """Run routing-by-agreement; returns (v, couplings, per_type_caps).

    ``v`` is the final combined output [batch, num_upper, dim_upper];
    ``couplings`` is the list of every iteration's couplings
    [batch, num_lower, num_upper] (the coupling tensors' own arrays, which
    no op mutates once built); ``per_type_caps`` holds the final
    iteration's per-type outputs [batch, num_types, num_upper, dim_upper]
    as a constant tensor in BY_TYPE mode and is None otherwise.

    The couplings start uniform (``initial_coupling``).  Every iteration
    forms the weighted vote sum (one per type in grouped mode, in a single
    op), squashes, and, except the last, adds the prediction/output
    agreement back onto the logits (for all lower capsules, against the
    combined output in grouped mode) and recomputes the couplings from them.
    """
    u_t = as_tensor(u_hat)
    if u_t.ndim != 4:
        raise ShapeError(f"u_hat must be 4-d, got {u_t.shape}")
    batch, n, j, d = u_t.shape
    if (n, j, d) != (spec.num_lower, spec.num_upper, spec.dim_upper):
        raise ShapeError(
            f"u_hat shape {u_t.shape} does not match layer spec"
            f" ({spec.num_lower}, {spec.num_upper}, {spec.dim_upper})")
    grouped = config.grouping is Grouping.BY_TYPE
    num_types = spec.num_types if grouped else 1

    couplings = []
    b_t = Tensor(np.zeros((batch, n, j), dtype=u_t.data.dtype))
    # the softmax of those all-zero logits, without computing it
    c = Tensor(np.full((batch, n, j), initial_coupling(spec, config), dtype=u_t.data.dtype))
    v = None
    per_type = None
    for it in range(config.iterations):
        v = squash(weighted_sum(c, u_t, num_types))
        if grouped:
            per_type = Tensor(v.data)
            v = squash(v.sum(axis=1))
        else:
            v = v.reshape(batch, j, d)
        couplings.append(c.data)
        if it + 1 < config.iterations:   # the last logits would go unread
            b_t = agreement_update(b_t, u_t, v)
            c = coupling_from_logits(b_t, config.softmax_axis, num_types)
    return v, couplings, per_type


def route_reference(u_hat, spec: CapsLayerSpec, config: RoutingConfig) -> Tensor:
    """Same contract as route, as explicit nested loops over every index.

    Deliberately unvectorized; restricted to small layers so tests stay fast.
    """
    u_arr = as_tensor(u_hat).data
    batch, n, j, d = u_arr.shape
    if n > 64:
        raise ValueError(f"route_reference handles num_lower <= 64, got {n}")
    if (n, j, d) != (spec.num_lower, spec.num_upper, spec.dim_upper):
        raise ShapeError(
            f"u_hat shape {u_arr.shape} does not match layer spec"
            f" ({spec.num_lower}, {spec.num_upper}, {spec.dim_upper})")
    grouped = config.grouping is Grouping.BY_TYPE
    size = spec.caps_per_type if grouped else n
    ranges = [(a, a + size) for a in range(0, n, size)]
    out = np.zeros((batch, j, d))
    for bi in range(batch):
        u = u_arr[bi]
        b_mat = [[0.0] * j for _ in range(n)]
        v = [[0.0] * d for _ in range(j)]
        for _ in range(config.iterations):
            c = _couplings_scalar(b_mat, config.softmax_axis, ranges, n, j)
            if grouped:
                combined = [[0.0] * d for _ in range(j)]
                for a, z in ranges:
                    for jj in range(j):
                        s = [sum(c[i][jj] * u[i, jj, di] for i in range(a, z))
                             for di in range(d)]
                        vm = _squash_scalar(s)
                        for di in range(d):
                            combined[jj][di] += vm[di]
                v = [_squash_scalar(combined[jj]) for jj in range(j)]
            else:
                v = []
                for jj in range(j):
                    s = [sum(c[i][jj] * u[i, jj, di] for i in range(n))
                         for di in range(d)]
                    v.append(_squash_scalar(s))
            for i in range(n):
                for jj in range(j):
                    b_mat[i][jj] += sum(u[i, jj, di] * v[jj][di]
                                        for di in range(d))
        out[bi] = np.array(v)
    return Tensor(out)


def _squash_scalar(s: list[float]) -> list[float]:
    n2 = sum(x * x for x in s)
    norm = math.sqrt(n2 + 1e-18)
    scale = n2 / ((1.0 + n2) * norm)
    return [x * scale for x in s]


def _couplings_scalar(b_mat, axis_mode: AxisMode, ranges, n: int, j: int):
    c = [[0.0] * j for _ in range(n)]
    if axis_mode is AxisMode.UPPER_PER_LOWER:
        for i in range(n):
            top = max(b_mat[i])
            e = [math.exp(x - top) for x in b_mat[i]]
            z = sum(e)
            for jj in range(j):
                c[i][jj] = e[jj] / z
    else:
        for a, z_end in ranges:
            for jj in range(j):
                col = [b_mat[i][jj] for i in range(a, z_end)]
                top = max(col)
                e = [math.exp(x - top) for x in col]
                z = sum(e)
                for k, i in enumerate(range(a, z_end)):
                    c[i][jj] = e[k] / z
    return c
