"""Model assembly and the training/evaluation machinery.

The classifier is: conv stem with ReLU, a second conv whose channels are
reshaped into primary capsules (type-major, so each type's grid positions
are contiguous), squash, per-pair prediction transforms, dynamic routing to
one capsule per class, and class scores as capsule lengths.  A three-layer
decoder reconstructs the input from the masked class capsules as a
regularizer.  The geometry is fixed, that of Sabour et al. (2017): a
``data.IMAGE_SHAPE`` image, 9x9 convs at strides 1 and 2, so a GRID x GRID
(6x6) grid of capsules per type, and ``data.NUM_CLASSES`` class capsules.
An ArchConfig sets only the widths.

Checkpoints are a single binary file: the magic string "GCAPS1", a
length-prefixed UTF-8 manifest of key=value lines, then one record per
parameter, in any order, each (name length, name bytes, rank, dims, float64
values) in little-endian 64-bit integers and IEEE doubles.  ``load_model``
checks each record against the manifest's architecture as it reads it.

Manifests and run configuration files share one key=value line format,
read by ``parse_pairs`` and written by ``format_pairs``, and every config
dataclass one codec: ``config_pairs`` writes each field by ``format_value``
and ``config_from`` reads each back by ``parse_value``, typed by the field's
annotation.
"""

from __future__ import annotations

import enum
import math
import os
import struct
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor
from .capsule import (
    RECON_WEIGHT,
    CapsLayerSpec,
    _require_one_hot,
    margin_loss,
    predict,
    reconstruction_loss,
    squash,
)
from .data import IMAGE_SHAPE, NUM_CLASSES
from .routing import RoutingConfig, route
from .seeds import SEED_ROLE_INIT, derived_rng
from .tensor import NonFiniteError, ShapeError, Tensor, conv2d, no_grad

CHECKPOINT_MAGIC = b"GCAPS1"
WEIGHT_INIT_STD = 0.1   # prediction-transform init; recorded in checkpoints
KERNEL, STEM_STRIDE, PRIMARY_STRIDE = 9, 1, 2   # a square image: 28 -> 20 -> GRID = 6
GRID = ((IMAGE_SHAPE[1] - KERNEL) // STEM_STRIDE + 1 - KERNEL) // PRIMARY_STRIDE + 1
_ROUTE_BLOCK_BYTES = 12 << 20   # u_hat per block of an unrecorded forward (see forward)


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the requested setup."""


def format_value(value) -> str:
    """A configuration or manifest value as key=value text: bools as
    true/false, tuples comma-joined, enums by value, floats by repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    value = value.value if isinstance(value, enum.Enum) else value
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(key: str, text: str, kind):
    """Inverse of format_value, typed by a field annotation ``kind``: a tuple
    type reads a comma-separated list of its first argument's type, with no
    empty entries, and an enum reads by value.  A ValueError names ``key``."""
    many = typing.get_origin(kind) is tuple
    kind = typing.get_args(kind)[0] if many else kind
    parts = [part.strip() for part in text.split(",")] if many else [text]
    try:
        if many and "" in parts:
            raise ValueError(f"empty list entry in {text!r}")
        if kind is bool and not {"true", "false"} >= set(parts):
            raise ValueError(f"expected true or false, got {text!r}")
        values = tuple(part == "true" if kind is bool else kind(part) for part in parts)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None
    return values if many else values[0]


def config_pairs(config) -> dict[str, str]:
    """Each field of a config dataclass as key=value text (see format_value)."""
    return {f.name: format_value(getattr(config, f.name)) for f in fields(config)}


def config_from(cls, pairs: dict[str, str]):
    """Inverse of config_pairs: every field of ``cls`` read from ``pairs`` by
    parse_value; other keys are ignored and a missing one is a KeyError."""
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: parse_value(f.name, pairs[f.name], hints[f.name])
                  for f in fields(cls)})


def parse_pairs(text: str) -> dict[str, str]:
    """key=value lines to a dict: lines end at line feeds only, blank and ``#``
    lines are skipped, key and value are stripped.  A ValueError names a bad line."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def format_pairs(pairs: dict) -> str:
    """One line per entry, by format_value; one that would not read back is a ValueError."""
    lines = []
    for key, value in pairs.items():
        lines.append(f"{key}={format_value(value)}\n")
        try:
            intact = parse_pairs(lines[-1]) == {key: format_value(value)}
        except ValueError:
            intact = False
        if not intact:
            raise ValueError(f"{key!r} would not read back unchanged from {lines[-1]!r}")
    return "".join(lines)


@dataclass(frozen=True)
class ArchConfig:
    """The widths of the network; its geometry is fixed (see GRID)."""

    stem_channels: int = 256
    num_types: int = 32
    primary_dim: int = 8
    digit_dim: int = 16
    decoder_hidden: tuple[int, int] = (512, 1024)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if any(v < 1 for v in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"ArchConfig.{f.name} must be positive, got {value}")
        if len(self.decoder_hidden) != 2:
            raise ValueError("decoder_hidden must name two layer widths")

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in build and checkpoint order."""
        primary_channels = self.num_types * self.primary_dim
        h1, h2 = self.decoder_hidden
        pixels = math.prod(IMAGE_SHAPE)
        return {
            "stem.kernel": (self.stem_channels, IMAGE_SHAPE[0], KERNEL, KERNEL),
            "stem.bias": (self.stem_channels,),
            "primary.kernel": (primary_channels, self.stem_channels, KERNEL, KERNEL),
            "primary.bias": (primary_channels,),
            "routing.weights": (self.layer_spec().num_lower, NUM_CLASSES, self.digit_dim,
                                self.primary_dim),
            "decoder.w1": (NUM_CLASSES * self.digit_dim, h1),
            "decoder.b1": (h1,),
            "decoder.w2": (h1, h2),
            "decoder.b2": (h2,),
            "decoder.w3": (h2, pixels),
            "decoder.b3": (pixels,),
        }

    def layer_spec(self) -> CapsLayerSpec:
        return CapsLayerSpec(num_upper=NUM_CLASSES, dim_lower=self.primary_dim,
                             dim_upper=self.digit_dim, num_types=self.num_types,
                             caps_per_type=GRID * GRID)

    @classmethod
    def compact(cls) -> "ArchConfig":
        """A narrow variant for fast smoke runs; same structure throughout."""
        return cls(stem_channels=32, num_types=8, decoder_hidden=(128, 256))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters and whether training batches are
    shift-augmented; the schedule is lr0 * decay^epoch."""

    lr0: float = 0.001
    decay: float = 0.95
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    epochs: int = 5
    seed: int = 0
    augment: bool = True

    def __post_init__(self):
        # written so that NaN fails every comparison and is rejected
        if not (0 < self.lr0 < math.inf and 0 < self.decay <= 1):
            raise ValueError("lr0 must be finite and positive and decay in (0, 1]")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def learning_rate(self, epoch: int) -> float:
        return self.lr0 * self.decay ** epoch


@dataclass
class Model:
    arch: ArchConfig
    routing: RoutingConfig
    params: dict[str, Tensor] = field(repr=False)


def _init_std(name: str, shape: tuple[int, ...]) -> float:
    """Normal init scale of one parameter; 0 means it starts at zero."""
    if name == "routing.weights":
        return WEIGHT_INIT_STD
    if name.endswith(".kernel"):
        # scaled for ReLU fan-in so stem activations start unit-ish
        return float(np.sqrt(2.0 / math.prod(shape[1:])))
    if name.startswith("decoder.w"):
        gain = 1.0 if name == "decoder.w3" else 2.0   # w3 feeds the sigmoid
        return float(np.sqrt(gain / shape[0]))
    return 0.0


def build_model(arch: ArchConfig, routing: RoutingConfig, seed: int) -> Model:
    """Deterministically initialized model for a (geometry, routing, seed)."""
    rng = derived_rng(seed, SEED_ROLE_INIT)
    params = {}
    for name, shape in arch.param_shapes().items():
        std = _init_std(name, shape)
        data = rng.normal(0.0, std, shape) if std else np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return Model(arch=arch, routing=routing, params=params)


def forward(model: Model, images: np.ndarray):
    """Images to (lengths, digit_caps, per_type_caps-or-None, couplings).

    ``lengths`` [batch, num_classes] are the class scores; ``digit_caps``
    [batch, num_classes, digit_dim] the routed capsules; ``per_type_caps``
    the array [batch, num_types, num_classes, digit_dim] of the per-type
    capsules, only in grouped routing; ``couplings`` the per-iteration
    couplings (see ``route``).

    The stem's output is donated to the primary conv (see ``conv2d``): it
    is freed once that conv has read it, in training as in evaluation,
    since the stem's backward keeps only its ReLU mask.

    Unrecorded, ``predict`` and ``route`` go in near-equal blocks of at
    least 2 images (one image's product runs a BLAS kernel with other bits)
    whose u_hat takes about ``_ROUTE_BLOCK_BYTES``, so it stays in cache;
    recorded, in one block, as slicing and concatenating are not tape ops.
    """
    x = Tensor(images)
    if x.ndim != 4 or x.shape[1:] != IMAGE_SHAPE:
        raise ShapeError(f"expected images [batch, {', '.join(map(str, IMAGE_SHAPE))}],"
                         f" got {x.shape}")
    p = model.params
    stem = conv2d(x, p["stem.kernel"], stride=STEM_STRIDE, bias=p["stem.bias"], relu=True)
    prim = conv2d(stem, p["primary.kernel"], stride=PRIMARY_STRIDE,
                  bias=p["primary.bias"], donate=True)
    batch, spec = x.shape[0], model.arch.layer_spec()
    # channels are type-major: capsule index = (type, row, col), so the
    # per-type index ranges used by grouped routing are contiguous
    grid = prim.reshape(batch, spec.num_types, spec.dim_lower, GRID, GRID)
    u = squash(grid.transpose(0, 1, 3, 4, 2).reshape(batch, spec.num_lower, spec.dim_lower))
    w = p["routing.weights"]   # an image's u_hat has w's size over dim_lower
    blocks = 1 if tensor._grad_enabled else max(
        1, batch // max(2, _ROUTE_BLOCK_BYTES * spec.dim_lower // w.data.nbytes))
    if blocks == 1:
        v, couplings, per_type = route(predict(u, w), spec, model.routing)
    else:
        edges = [batch * i // blocks for i in range(blocks + 1)]
        vs, couplings, per_type = zip(*(route(predict(Tensor(u.data[b0:b1]), w), spec,
                                              model.routing) for b0, b1 in zip(edges, edges[1:])))
        v = Tensor(np.concatenate([block.data for block in vs]))
        couplings = [np.concatenate(c) for c in zip(*couplings)]
        per_type = None if per_type[0] is None else np.concatenate(per_type)
    lengths = ((v * v).sum(axis=2) + 1e-18).sqrt()
    return lengths, v, per_type, couplings


def decode(model: Model, digit_caps: Tensor, labels: Tensor) -> Tensor:
    """Reconstruct pixels from the capsules of the labeled class only.

    All other class capsules are zeroed before the decoder; the same decoder
    weights serve combined and per-type capsules.
    """
    if digit_caps.ndim != 3 or labels.shape != digit_caps.shape[:2]:
        raise ShapeError(f"decode expects capsules [batch, classes, dim] and"
                         f" matching one-hot labels, got {digit_caps.shape}"
                         f" and {labels.shape}")
    _require_one_hot(labels.data)
    p = model.params
    batch, classes, dim = digit_caps.shape
    masked = digit_caps * labels.reshape(batch, classes, 1)
    h = masked.reshape(batch, classes * dim)
    h = ((h @ p["decoder.w1"]) + p["decoder.b1"]).relu()
    h = ((h @ p["decoder.w2"]) + p["decoder.b2"]).relu()
    return ((h @ p["decoder.w3"]) + p["decoder.b3"]).sigmoid()


def one_hot(labels: np.ndarray) -> np.ndarray:
    """Integer class labels [batch] as float64 one-hot rows [batch, NUM_CLASSES]."""
    labels = np.asarray(labels)
    if (labels.ndim != 1 or labels.dtype.kind not in "iu"
            or (labels < 0).any() or (labels >= NUM_CLASSES).any()):
        raise ValueError(f"labels must be 1-d integers in [0, {NUM_CLASSES})")
    return np.eye(NUM_CLASSES)[labels]


# Elements per piece of an Adam update: its six operand pieces (256 KiB each
# in float64) stay in cache.  Pieces of 4 Ki to 256 Ki elements ran 1.7-2.3x
# faster than whole-parameter arrays on the default arch.
_ADAM_PIECE = 1 << 15


class Adam:
    """Adam updates over a named parameter dict at ``config``'s rates; ``lr``
    starts at its ``lr0`` and may be reassigned between steps (the per-epoch
    schedule does)."""

    def __init__(self, params: dict[str, Tensor], config: TrainConfig = TrainConfig()):
        self.params = params
        self.lr = config.lr0
        self.beta1, self.beta2, self.eps = config.beta1, config.beta2, config.eps
        self.t = 0
        # C-contiguous, so that step's flat views of them are views
        self._m = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}
        self._v = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.clear_grad()

    def step(self) -> None:
        """One update of every parameter that has a gradient, in place.

        Each parameter is updated in pieces of ``_ADAM_PIECE`` elements with
        two piece-sized scratch arrays, so no parameter-sized temporary is
        made and each piece's arithmetic stays in cache.  The operations and
        their order are those of the textbook update, so the bytes are too.
        """
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            flat = [a.reshape(-1) for a in (self._m[k], self._v[k], p.grad, p.data)]
            scratch1 = np.empty(min(p.data.size, _ADAM_PIECE), dtype=p.data.dtype)
            scratch2 = np.empty_like(scratch1)
            for i in range(0, p.data.size, _ADAM_PIECE):
                m, v, g, data = (a[i:i + _ADAM_PIECE] for a in flat)
                s1, s2 = scratch1[:len(m)], scratch2[:len(m)]
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, g, out=s1)
                v *= self.beta2
                v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=s1), out=s1)
                update = np.multiply(self.lr, np.divide(m, b1c, out=s1), out=s1)
                denom = np.add(np.sqrt(np.divide(v, b2c, out=s2), out=s2), self.eps, out=s2)
                data -= np.divide(update, denom, out=s1)
            if not p.data.flags.c_contiguous:   # its reshape(-1) was a copy
                p.data[...] = flat[3].reshape(p.data.shape)


def batch_loss(model: Model, images: np.ndarray, labels_1h: np.ndarray):
    """Forward pass and total loss; returns (loss, lengths, couplings): the
    margin plus reconstruction loss, digit lengths and routing couplings."""
    lengths, digit_caps, _, couplings = forward(model, images)
    margin = margin_loss(lengths, Tensor(labels_1h))
    decoded = decode(model, digit_caps, Tensor(labels_1h))
    recon = reconstruction_loss(decoded, Tensor(images.reshape(images.shape[0], -1)))
    return margin + RECON_WEIGHT * recon, lengths, couplings


def train_step(model: Model, optimizer: Adam, images: np.ndarray,
               labels: np.ndarray) -> tuple[float, float]:
    """One optimization step; returns (loss, accuracy) on the batch.  A NaN
    or inf in the forward pass or the loss raises NonFiniteError naming the
    first non-finite parameter, else "an intermediate activation"."""
    try:
        # not the couplings: held, they would outlive backward and raise its peak
        total, lengths = batch_loss(model, images, one_hot(labels))[:2]
        if not np.isfinite(total.data).all():
            raise NonFiniteError("non-finite loss")
    except NonFiniteError as exc:
        culprit = next((f"parameter {k}" for k, t in model.params.items()
                        if not np.isfinite(t.data).all()), "an intermediate activation")
        raise NonFiniteError(f"{exc}; first non-finite tensor: {culprit}") from None
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    predicted = lengths.data.argmax(axis=1)
    return float(total.item()), float((predicted == labels).mean())


def evaluate(model: Model, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 128, capture_trace: bool = False):
    """Accuracy, mean total loss, and a (true, predicted) count matrix; with
    ``capture_trace`` also each image's final-iteration mean |dc|, [n]."""
    n = len(labels)
    if n == 0:
        raise ValueError("evaluate requires a nonempty dataset")
    if len(images) != n:
        raise ValueError(f"evaluate got {len(images)} images and {n} labels")
    if batch_size < 1:
        raise ValueError(f"evaluate needs batch_size >= 1, got {batch_size}")
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    dc_per_image = np.zeros(n)
    loss_sum = 0.0
    with no_grad():
        for start in range(0, n, batch_size):
            img = images[start:start + batch_size]
            lab = labels[start:start + batch_size]
            total, lengths, couplings = batch_loss(model, img, one_hot(lab))
            loss_sum += total.item() * len(lab)
            pred = lengths.data.argmax(axis=1)
            np.add.at(confusion, (lab, pred), 1)
            if capture_trace:   # zeros for a single routing iteration
                dc_per_image[start:start + len(lab)] = np.abs(
                    couplings[-1] - couplings[max(len(couplings) - 2, 0)]).mean(axis=(1, 2))
            del couplings   # held into the next batch, they would raise its peak
    result = (int(confusion.trace()) / n, loss_sum / n, confusion)
    return result + (dc_per_image,) if capture_trace else result


# -- checkpoint io -----------------------------------------------------------


def save_checkpoint(path: str, model: Model,
                    extra: dict[str, str] | None = None) -> None:
    """Write the model atomically (see write_atomic)."""
    manifest = {**config_pairs(model.arch), **config_pairs(model.routing),
                "weight_init_std": WEIGHT_INIT_STD}
    for k, v in (extra or {}).items():
        if k in manifest:
            raise ValueError(f"manifest entry {k!r} would overwrite an"
                             f" architecture or routing key")
        manifest[k] = v
    body = format_pairs(dict(sorted(manifest.items()))).encode()
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<Q", len(body))
    blob += body
    for name, param in model.params.items():
        encoded = name.encode()
        blob += struct.pack("<Q", len(encoded))
        blob += encoded
        blob += struct.pack("<Q", param.ndim)
        blob += struct.pack(f"<{param.ndim}Q", *param.shape)
        blob += np.ascontiguousarray(param.data, dtype="<f8").tobytes()
    write_atomic(path, blob)


def write_atomic(path: str, blob: bytes) -> None:
    """Write ``blob`` to a temp file beside ``path``, then rename it over
    ``path``, so readers never see a partial file.  Creates the directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_model(path: str) -> tuple[Model, dict[str, str]]:
    """Rebuild a model, with its manifest, from a checkpoint read and validated
    in one pass; parameters come back in build order, and a CheckpointError
    names the offset of a bad record.  Matching a run is the caller's check."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    offset = len(CHECKPOINT_MAGIC)

    def take(count: int, what: str) -> memoryview:
        nonlocal offset
        if offset + count > len(raw):
            raise CheckpointError(f"truncated checkpoint {path}: needed {count} bytes"
                                  f" for {what} at offset {offset}")
        offset += count
        return raw[offset - count:offset]

    def take_u64(what: str) -> int:
        return struct.unpack("<Q", take(8, what))[0]

    def take_text(count: int, what: str) -> str:
        try:
            return take(count, what).tobytes().decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} is not UTF-8 at offset"
                                  f" {offset - count + exc.start} in {path}") from None

    text = take_text(take_u64("manifest length"), "manifest")
    try:
        manifest = parse_pairs(text)
    except ValueError as exc:
        raise CheckpointError(f"malformed manifest in {path}: {exc}") from None
    try:
        arch = config_from(ArchConfig, manifest)
        routing = config_from(RoutingConfig, manifest)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint manifest in {path} lacks a valid"
                              f" architecture or routing description: {exc}") from None
    unread, arrays = arch.param_shapes(), {}
    while offset < len(raw):
        start = offset
        name = take_text(take_u64("tensor name length"), "tensor name")
        if name not in unread:
            raise CheckpointError(f"{'duplicate' if name in arrays else 'unexpected'}"
                                  f" tensor {name} at offset {start} in {path}")
        shape = unread.pop(name)
        rank = take_u64(f"rank of {name}")
        if rank != len(shape):   # before its dims are read, so any rank is safe
            raise CheckpointError(f"{name} at offset {start} has rank {rank},"
                                  f" expected {len(shape)}, in {path}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name}"))
        if dims != shape:
            raise CheckpointError(f"{name} at offset {start} has dims {dims},"
                                  f" expected {shape}, in {path}")
        values = np.frombuffer(take(8 * math.prod(shape), f"values of {name}"), dtype="<f8")
        finite = np.isfinite(values)
        if not finite.all():
            at = offset - values.nbytes + 8 * int(np.argmin(finite))
            raise CheckpointError(f"non-finite value in {name} at offset {at} in {path}")
        arrays[name] = values.reshape(shape).copy()
    if unread:
        raise CheckpointError(f"checkpoint {path} lacks tensors {', '.join(unread)}")
    params = {name: Tensor(arrays[name], requires_grad=True) for name in arch.param_shapes()}
    return Model(arch=arch, routing=routing, params=params), manifest
