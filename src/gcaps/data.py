"""Dataset ingestion and batching.

Image and label files use the IDX binary layout: a big-endian header of one
32-bit magic (0x00000803 for rank-3 image files, 0x00000801 for rank-1 label
files) followed by one 32-bit size per dimension, then the raw unsigned
bytes.  Pixels are scaled to [0, 1] on load.

Training batches can apply the shift augmentation: an integer translation
drawn uniformly from [-max_shift, max_shift] per axis, with vacated pixels
left at zero.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .seeds import SEED_ROLE_AUGMENT, SEED_ROLE_SHUFFLE, SEED_ROLE_SYNTHETIC, derived_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """An IDX file violates the format contract."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


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
        if len(self.images) and (self.images.min() < 0.0
                                 or self.images.max() > 1.0):
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


def _read_header(raw: bytes, path: str, expected_magic: int,
                 rank: int) -> tuple[int, ...]:
    need = 4 * (1 + rank)
    if len(raw) < need:
        raise IdxTruncatedError(
            f"{path}: file ends at byte {len(raw)}, header needs {need}")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise IdxMagicError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, expected"
            f" 0x{expected_magic:08x}")
    return struct.unpack(f">{rank}I", raw[4:need])


def _read_bytes(path: str) -> bytes:
    """Whole file, decompressing transparently when the name ends in .gz."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        try:
            return fh.read()
        except EOFError:
            raise IdxTruncatedError(
                f"{path}: gzip stream ends before its end marker") from None
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise IdxFormatError(f"{path}: corrupt gzip data: {exc}") from None


def load_idx(images_path: str, labels_path: str, name: str = "dataset",
             split: str = "train") -> Dataset:
    """Read an images/labels IDX pair into a Dataset."""
    img_raw = _read_bytes(images_path)
    count, rows, cols = _read_header(img_raw, images_path, IDX_IMAGES_MAGIC, 3)
    body = 16 + count * rows * cols
    if len(img_raw) < body:
        raise IdxTruncatedError(
            f"{images_path}: payload ends at byte {len(img_raw)}, header"
            f" at offset 4 promises {count}x{rows}x{cols} = {body} bytes")
    if len(img_raw) > body:
        raise IdxFormatError(
            f"{images_path}: {len(img_raw) - body} trailing bytes after"
            f" offset {body}")
    lab_raw = _read_bytes(labels_path)
    (lab_count,) = _read_header(lab_raw, labels_path, IDX_LABELS_MAGIC, 1)
    if len(lab_raw) != 8 + lab_count:
        raise IdxTruncatedError(
            f"{labels_path}: payload ends at byte {len(lab_raw)}, header"
            f" at offset 4 promises {8 + lab_count} bytes")
    if lab_count != count:
        raise IdxCountMismatchError(
            f"{labels_path}: {lab_count} labels for {count} images"
            f" in {images_path}")
    pixels = np.frombuffer(img_raw, dtype=np.uint8, offset=16)
    images = pixels.astype(np.float64).reshape(count, 1, rows, cols) / 255.0
    labels = np.frombuffer(lab_raw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images=images, labels=labels, name=name, split=split)


def augment_shift(image: np.ndarray, max_shift: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Translate [channels, h, w] by a uniform integer offset, zero filling."""
    if max_shift < 0:
        raise ValueError(f"max_shift must be >= 0, got {max_shift}")
    if max_shift == 0:
        return image.copy()
    dy, dx = (int(d) for d in rng.integers(-max_shift, max_shift + 1, size=2))
    out = np.zeros_like(image)
    h, w = image.shape[-2:]
    src_y = slice(max(0, -dy), min(h, h - dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    out[..., dst_y, dst_x] = image[..., src_y, src_x]
    return out


def batches(dataset: Dataset, batch_size: int, shuffle_seed: int | None = None,
            augment: bool = False, max_shift: int = 2, epoch: int = 0):
    """Yield (images, labels) covering the dataset once.

    With a shuffle seed the order is a seeded permutation (varied by
    ``epoch``), otherwise the stored order; the final short batch is
    included.  Augmentation draws a fresh shift per image and only ever
    touches train splits.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        order = derived_rng(shuffle_seed, SEED_ROLE_SHUFFLE, epoch).permutation(n)
    do_augment = augment and dataset.split == "train" and max_shift > 0
    aug_rng = derived_rng(shuffle_seed or 0, SEED_ROLE_AUGMENT, epoch) \
        if do_augment else None
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        images = dataset.images[idx]
        if do_augment:
            images = np.stack([augment_shift(img, max_shift, aug_rng)
                               for img in images])
        yield images, dataset.labels[idx]


def synthetic_dataset(seed: int, n: int, num_classes: int = 10,
                      height: int = 28, width: int = 28,
                      split: str = "train") -> Dataset:
    """Linearly separable fixture data: one bright bar per class plus noise.

    Class k lights a horizontal bar whose row position indexes the class, so
    any model that can localize a single stroke can reach 100% accuracy.
    """
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got {n} < {num_classes}")
    rng = derived_rng(seed, SEED_ROLE_SYNTHETIC)
    labels = np.arange(n, dtype=np.int64) % num_classes
    images = np.zeros((n, 1, height, width))
    margin = 4
    span = height - 2 * margin - 2
    for i, k in enumerate(labels):
        # 2-row bars on a >= 2-row pitch: no two classes share a row
        row = margin + round(k * span / max(1, num_classes - 1))
        images[i, 0, row:row + 2, margin:width - margin] = 0.9
    images += rng.uniform(0.0, 0.1, images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images=images, labels=labels, name="synthetic", split=split)
