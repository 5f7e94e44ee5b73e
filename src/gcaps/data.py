"""Dataset ingestion and batching.

Image and label files use the IDX binary layout: a big-endian header of one
32-bit magic (0x00000803 for rank-3 image files, 0x00000801 for rank-1 label
files) followed by one 32-bit size per dimension, then the raw unsigned
bytes.  Pixels are scaled to [0, 1] on load.  Every dataset the lab reads
(and the synthetic one it makes) holds IMAGE_SHAPE = (1, 28, 28) images of
NUM_CLASSES = 10 classes: a label file holding any other label is rejected.

Training batches can apply the shift augmentation of Sabour et al. (2017):
an integer translation of up to MAX_SHIFT = 2 pixels per axis, drawn
uniformly, with vacated pixels left at zero.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .seeds import SEED_ROLE_AUGMENT, SEED_ROLE_SHUFFLE, SEED_ROLE_SYNTHETIC, derived_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MAX_SHIFT = 2
IMAGE_SHAPE = (1, 28, 28)   # channels, height, width
NUM_CLASSES = 10


class IdxFormatError(ValueError):
    """An IDX file violates the format contract."""


@dataclass(frozen=True)
class Dataset:
    """Images [n, channels, height, width] in [0,1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    name: str
    split: str

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be 4-d, got {self.images.shape}")
        if self.labels.ndim != 1 or len(self.images) != len(self.labels):
            raise ValueError(
                f"images ({len(self.images)}) and labels ({len(self.labels)})"
                f" must align one to one")
        if len(self.images) and not (0.0 <= self.images.min() and self.images.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, limit: int | None) -> "Dataset":
        """The first ``limit`` examples (or everything when limit is None)."""
        if limit is None or limit >= len(self):
            return self
        if limit < 1:
            raise ValueError(f"subset size must be positive, got {limit}")
        return replace(self, images=self.images[:limit],
                       labels=self.labels[:limit])


def _read_bytes(path: str) -> bytes:
    """Whole file, decompressing transparently when the name ends in .gz."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        try:
            return fh.read()
        except EOFError:
            raise IdxFormatError(
                f"{path}: gzip stream ends before its end marker") from None
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise IdxFormatError(f"{path}: corrupt gzip data: {exc}") from None


def _read_idx(path: str, magic: int, rank: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The header's dims and the uint8 payload of one IDX file, which must
    hold exactly the bytes its header promises."""
    raw = _read_bytes(path)
    start = 4 * (1 + rank)
    if len(raw) < start:
        raise IdxFormatError(f"{path}: file ends at byte {len(raw)}, header needs {start}")
    found, *dims = struct.unpack(f">{1 + rank}I", raw[:start])
    if found != magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}")
    end = start + math.prod(dims)
    if len(raw) < end:
        raise IdxFormatError(
            f"{path}: payload ends at byte {len(raw)}, header at offset 4"
            f" promises {'x'.join(map(str, dims))} bytes from offset {start} to {end}")
    if len(raw) > end:
        raise IdxFormatError(f"{path}: {len(raw) - end} trailing bytes after offset {end}")
    return tuple(dims), np.frombuffer(raw, dtype=np.uint8, offset=start)


def load_idx(images_path: str, labels_path: str, name: str = "dataset",
             split: str = "train") -> Dataset:
    """Read an images/labels IDX pair into a Dataset."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    if (1, rows, cols) != IMAGE_SHAPE:
        raise IdxFormatError(f"{images_path}: header at offset 8 gives {rows}x{cols} images,"
                             f" expected {'x'.join(map(str, IMAGE_SHAPE[1:]))}")
    (lab_count,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if lab_count != count:
        raise IdxFormatError(
            f"{labels_path}: header at offset 4 gives {lab_count} labels for"
            f" {count} images in {images_path}")
    bad = np.flatnonzero(labels >= NUM_CLASSES)
    if bad.size:
        raise IdxFormatError(f"{labels_path}: label {labels[bad[0]]} at offset"
                             f" {8 + bad[0]} is not in [0, {NUM_CLASSES})")
    return Dataset(images=(pixels / 255.0).reshape(count, 1, rows, cols),
                   labels=labels.astype(np.int64), name=name, split=split)


def augment_shift(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Translate [channels, h, w] by a uniform integer offset of up to
    MAX_SHIFT pixels per axis, zero filling."""
    dy, dx = (int(d) for d in rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2))
    out = np.zeros_like(image)
    h, w = image.shape[-2:]
    src_y = slice(max(0, -dy), min(h, h - dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    out[..., dst_y, dst_x] = image[..., src_y, src_x]
    return out


def batches(dataset: Dataset, batch_size: int, shuffle_seed: int,
            augment: bool = False, epoch: int = 0):
    """Yield (images, labels) covering the dataset once.

    The order is a permutation seeded by ``shuffle_seed`` and ``epoch``; the
    final short batch is included.  Augmentation draws a fresh shift per
    image and only ever touches train splits.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = derived_rng(shuffle_seed, SEED_ROLE_SHUFFLE, epoch).permutation(len(dataset))
    do_augment = augment and dataset.split == "train"
    aug_rng = derived_rng(shuffle_seed, SEED_ROLE_AUGMENT, epoch) if do_augment else None
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        images = dataset.images[idx]
        if do_augment:
            images = np.stack([augment_shift(img, aug_rng) for img in images])
        yield images, dataset.labels[idx]


def synthetic_dataset(seed: int, n: int, split: str = "train") -> Dataset:
    """Linearly separable fixture data: NUM_CLASSES classes of IMAGE_SHAPE
    images, one bright bar per class plus noise.

    Class k lights the 2-row horizontal bar at row 4 + 2k, so no two classes
    share a row and any model that can localize a single stroke can reach
    100% accuracy.
    """
    if n < NUM_CLASSES:
        raise ValueError(f"synthetic_dataset needs n >= {NUM_CLASSES}, one per class, got {n}")
    rng = derived_rng(seed, SEED_ROLE_SYNTHETIC)
    labels = np.arange(n, dtype=np.int64) % NUM_CLASSES
    images = np.zeros((n, *IMAGE_SHAPE))
    for i, k in enumerate(labels.tolist()):
        images[i, 0, 4 + 2 * k:6 + 2 * k, 4:24] = 0.9
    images += rng.uniform(0.0, 0.1, images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images=images, labels=labels, name="synthetic", split=split)
