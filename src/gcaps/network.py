"""Model assembly and the training/evaluation machinery.

The classifier is: conv stem with ReLU, a second conv whose channels are
reshaped into primary capsules (type-major, so each type's grid positions
are contiguous), squash, per-pair prediction transforms, dynamic routing to
one capsule per class, and class scores as capsule lengths.  A three-layer
decoder reconstructs the input from the masked class capsules as a
regularizer.

Checkpoints are a single binary file: the magic string "GCAPS1", a
length-prefixed UTF-8 manifest of key=value lines, then each parameter as
(name length, name bytes, rank, dims, float64 values), all integers 64-bit
little-endian and values little-endian IEEE doubles.

Manifests and run configuration files share one key=value line format,
read by ``parse_pairs`` and written by ``format_pairs``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .capsule import (
    RECON_WEIGHT,
    CapsLayerSpec,
    _require_one_hot,
    margin_loss,
    predict,
    reconstruction_loss,
    squash,
)
from .routing import RoutingConfig, route
from .seeds import SEED_ROLE_INIT, derived_rng
from .tensor import NonFiniteError, ShapeError, Tensor, conv2d, first_nonfinite, no_grad

CHECKPOINT_MAGIC = b"GCAPS1"
WEIGHT_INIT_STD = 0.1   # prediction-transform init; recorded in checkpoints


class CheckpointError(ValueError):
    """Checkpoint file is malformed or does not match the requested setup."""


def _conv_out(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def format_value(value) -> str:
    """A configuration or manifest value as key=value text: bools as
    true/false, tuples comma-joined, floats by repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(key: str, text: str, default):
    """Inverse of format_value, typed by a dataclass field's ``default``: a
    tuple default reads a comma-separated list of its first element's type,
    with no empty entries.  A ValueError names ``key``."""
    many = isinstance(default, tuple)
    kind = type(default[0] if many else default)
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
    """Static geometry of the network; everything else is derived from it."""

    input_channels: int = 1
    input_height: int = 28
    input_width: int = 28
    stem_channels: int = 256
    stem_kernel: int = 9
    stem_stride: int = 1
    num_types: int = 32
    primary_dim: int = 8
    primary_kernel: int = 9
    primary_stride: int = 2
    num_classes: int = 10
    digit_dim: int = 16
    decoder_hidden: tuple[int, int] = (512, 1024)

    def __post_init__(self):
        for name in ("input_channels", "input_height", "input_width",
                     "stem_channels", "stem_kernel", "stem_stride",
                     "num_types", "primary_dim", "primary_kernel",
                     "primary_stride", "num_classes", "digit_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"ArchConfig.{name} must be positive")
        if len(self.decoder_hidden) != 2:
            raise ValueError("decoder_hidden must name two layer widths")
        if self.grid_height < 1 or self.grid_width < 1:
            raise ValueError(
                f"conv geometry collapses: input {self.input_height}x"
                f"{self.input_width} leaves a {self.grid_height}x"
                f"{self.grid_width} capsule grid")

    @property
    def stem_out_height(self) -> int:
        return _conv_out(self.input_height, self.stem_kernel, self.stem_stride)

    @property
    def stem_out_width(self) -> int:
        return _conv_out(self.input_width, self.stem_kernel, self.stem_stride)

    @property
    def grid_height(self) -> int:
        return _conv_out(self.stem_out_height, self.primary_kernel,
                         self.primary_stride)

    @property
    def grid_width(self) -> int:
        return _conv_out(self.stem_out_width, self.primary_kernel,
                         self.primary_stride)

    @property
    def caps_per_type(self) -> int:
        return self.grid_height * self.grid_width

    @property
    def num_lower(self) -> int:
        return self.num_types * self.caps_per_type

    @property
    def pixels(self) -> int:
        return self.input_channels * self.input_height * self.input_width

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every parameter, in build and checkpoint order."""
        primary_channels = self.num_types * self.primary_dim
        h1, h2 = self.decoder_hidden
        return {
            "stem.kernel": (self.stem_channels, self.input_channels,
                            self.stem_kernel, self.stem_kernel),
            "stem.bias": (self.stem_channels,),
            "primary.kernel": (primary_channels, self.stem_channels,
                               self.primary_kernel, self.primary_kernel),
            "primary.bias": (primary_channels,),
            "routing.weights": (self.num_lower, self.num_classes,
                                self.digit_dim, self.primary_dim),
            "decoder.w1": (self.num_classes * self.digit_dim, h1),
            "decoder.b1": (h1,),
            "decoder.w2": (h1, h2),
            "decoder.b2": (h2,),
            "decoder.w3": (h2, self.pixels),
            "decoder.b3": (self.pixels,),
        }

    def layer_spec(self) -> CapsLayerSpec:
        return CapsLayerSpec(
            num_lower=self.num_lower, num_upper=self.num_classes,
            dim_lower=self.primary_dim, dim_upper=self.digit_dim,
            num_types=self.num_types, caps_per_type=self.caps_per_type)

    @classmethod
    def compact(cls) -> "ArchConfig":
        """A narrow variant for fast smoke runs; same structure throughout."""
        return cls(stem_channels=32, num_types=8, decoder_hidden=(128, 256))

    def to_manifest(self) -> dict[str, str]:
        """Each field as text in the key=value format (see format_value)."""
        return {f.name: format_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_manifest(cls, manifest: dict[str, str]) -> "ArchConfig":
        return cls(**{f.name: parse_value(f.name, manifest[f.name], f.default)
                      for f in fields(cls)})


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; the schedule is lr0 * decay^epoch."""

    lr0: float = 0.001
    decay: float = 0.95
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 128
    epochs: int = 5
    seed: int = 0

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
    [batch, num_types, num_classes, digit_dim] only in grouped routing;
    ``couplings`` the per-iteration couplings (see ``route``).
    """
    arch = model.arch
    x = Tensor(images)
    if x.ndim != 4 or x.shape[1:] != (arch.input_channels, arch.input_height,
                                      arch.input_width):
        raise ShapeError(f"expected images [batch, {arch.input_channels},"
                         f" {arch.input_height}, {arch.input_width}],"
                         f" got {x.shape}")
    p = model.params
    stem = conv2d(x, p["stem.kernel"], stride=arch.stem_stride, bias=p["stem.bias"],
                  relu=True)
    prim = conv2d(stem, p["primary.kernel"], stride=arch.primary_stride,
                  bias=p["primary.bias"])
    batch = x.shape[0]
    # channels are type-major: capsule index = (type, row, col), so the
    # per-type index ranges used by grouped routing are contiguous
    grid = prim.reshape(batch, arch.num_types, arch.primary_dim,
                        arch.grid_height, arch.grid_width)
    u = grid.transpose(0, 1, 3, 4, 2).reshape(batch, arch.num_lower,
                                              arch.primary_dim)
    u = squash(u)
    u_hat = predict(u, p["routing.weights"])
    v, couplings, per_type = route(u_hat, arch.layer_spec(), model.routing)
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


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels < 0).any() or (labels >= num_classes).any():
        raise ValueError(f"labels must be 1-d in [0, {num_classes})")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


# Elements per piece of an Adam update: its six operand pieces (256 KiB each
# in float64) stay in cache.  Pieces of 4 Ki to 256 Ki elements ran 1.7-2.3x
# faster than whole-parameter arrays on the default arch.
_ADAM_PIECE = 1 << 15


class Adam:
    """Adam updates over a named parameter dict; ``lr`` may be reassigned
    between steps (the per-epoch schedule does)."""

    def __init__(self, params: dict[str, Tensor], lr=TrainConfig.lr0,
                 beta1=TrainConfig.beta1, beta2=TrainConfig.beta2, eps=TrainConfig.eps):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        # C-contiguous, so that step's flat views of them are views
        self._m = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}
        self._v = {k: np.zeros(p.shape, dtype=p.data.dtype) for k, p in params.items()}

    @classmethod
    def from_config(cls, params: dict[str, Tensor], cfg: TrainConfig) -> "Adam":
        return cls(params, lr=cfg.lr0, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.eps)

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
    """Forward pass and total loss; returns (loss, lengths, named probes,
    couplings)."""
    lengths, digit_caps, _, couplings = forward(model, images)
    margin = margin_loss(lengths, Tensor(labels_1h))
    decoded = decode(model, digit_caps, Tensor(labels_1h))
    recon = reconstruction_loss(decoded, Tensor(images.reshape(images.shape[0], -1)))
    total = margin + RECON_WEIGHT * recon
    probes = [("digit_caps", digit_caps), ("lengths", lengths),
              ("decoded", decoded), ("margin_loss", margin),
              ("reconstruction_loss", recon), ("total_loss", total)]
    return total, lengths, probes, couplings


def train_step(model: Model, optimizer: Adam, images: np.ndarray,
               labels: np.ndarray) -> tuple[float, float]:
    """One optimization step; returns (loss, accuracy) on the batch."""
    labels_1h = one_hot(labels, model.arch.num_classes)
    param_probes = [(f"parameter {k}", t) for k, t in model.params.items()]
    try:
        # not the couplings: held, they would outlive backward and raise its peak
        total, lengths, probes = batch_loss(model, images, labels_1h)[:3]
    except NonFiniteError as exc:
        culprit = first_nonfinite(param_probes) or "an intermediate activation"
        raise NonFiniteError(f"non-finite values in forward pass ({exc});"
                             f" first non-finite tensor: {culprit}") from None
    if not np.isfinite(total.data).all():
        culprit = first_nonfinite(param_probes + probes)
        raise NonFiniteError(f"non-finite loss; first non-finite tensor:"
                             f" {culprit}")
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
    num_classes = model.arch.num_classes
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    dc_per_image = np.zeros(n)
    loss_sum = 0.0
    with no_grad():
        for start in range(0, n, batch_size):
            img = images[start:start + batch_size]
            lab = labels[start:start + batch_size]
            total, lengths, _, couplings = batch_loss(model, img, one_hot(lab, num_classes))
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
    manifest = {**model.arch.to_manifest(), **model.routing.to_manifest(),
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
    for name, tensor in model.params.items():
        encoded = name.encode()
        blob += struct.pack("<Q", len(encoded))
        blob += encoded
        blob += struct.pack("<Q", tensor.ndim)
        blob += struct.pack(f"<{tensor.ndim}Q", *tensor.shape)
        blob += np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
    write_atomic(path, blob)


def write_atomic(path: str, blob: bytes) -> None:
    """Write ``blob`` to a temp file beside ``path``, then rename it over
    ``path``, so readers never see a partial file.  Creates the directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def read_checkpoint(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Parse a checkpoint into (manifest, named arrays), validating framing."""
    with open(path, "rb") as fh:
        raw = fh.read()
    view = memoryview(raw)
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    offset = len(CHECKPOINT_MAGIC)

    def take(count: int, what: str) -> memoryview:
        nonlocal offset
        if offset + count > len(raw):
            raise CheckpointError(
                f"truncated checkpoint {path}: needed {count} bytes for"
                f" {what} at offset {offset}")
        chunk = view[offset:offset + count]
        offset += count
        return chunk

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
    params: dict[str, np.ndarray] = {}
    while offset < len(raw):
        start = offset
        name = take_text(take_u64("tensor name length"), "tensor name")
        if name in params:
            raise CheckpointError(f"duplicate tensor {name} at offset {start} in {path}")
        rank = take_u64(f"rank of {name}")
        if rank > 8:
            raise CheckpointError(f"implausible rank {rank} for {name} in {path}")
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name}"))
        # Python ints: a product of hostile dims must not wrap before the check.
        values = np.frombuffer(take(8 * math.prod(dims), f"values of {name}"),
                               dtype="<f8")
        finite = np.isfinite(values)
        if not finite.all():
            at = offset - values.nbytes + 8 * int(np.argmin(finite))
            raise CheckpointError(f"non-finite value in {name} at offset {at}"
                                  f" in {path}")
        params[name] = values.reshape(dims).copy()
    return manifest, params


def load_model(path: str, arch: ArchConfig | None = None,
               routing: RoutingConfig | None = None) -> tuple[Model, dict[str, str]]:
    """Rebuild a model from a checkpoint; optional expectations are enforced.

    Passing ``arch``/``routing`` asserts the stored manifest matches them,
    failing with a CheckpointError naming each differing key.
    """
    manifest, arrays = read_checkpoint(path)
    try:
        stored_arch = ArchConfig.from_manifest(manifest)
        stored_routing = RoutingConfig.from_manifest(manifest)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint manifest in {path} lacks a valid"
                              f" architecture or routing description: {exc}") from None
    if arch is not None and arch != stored_arch:
        diffs = [k for k, v in arch.to_manifest().items()
                 if stored_arch.to_manifest()[k] != v]
        raise CheckpointError(f"manifest mismatch in {path}:"
                              f" differing keys {diffs}")
    if routing is not None and routing != stored_routing:
        raise CheckpointError(
            f"manifest mismatch in {path}: checkpoint routing is"
            f" {stored_routing.name}, requested {routing.name}")
    shapes = stored_arch.param_shapes()
    if set(arrays) != set(shapes):
        raise CheckpointError(
            f"checkpoint {path} parameter names {sorted(arrays)} do not match"
            f" the architecture's {sorted(shapes)}")
    params = {}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"checkpoint {path}: {name} has shape {arrays[name].shape},"
                f" expected {shape}")
        params[name] = Tensor(arrays[name], requires_grad=True)
    return Model(arch=stored_arch, routing=stored_routing, params=params), manifest
