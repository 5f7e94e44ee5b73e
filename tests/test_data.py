"""Data layer checks: IDX parsing against hand-built fixtures, shift
augmentation semantics, batch iteration arithmetic, and the synthetic
fixture generator."""

import gzip
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gcaps.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    IdxFormatError,
    augment_shift,
    batches,
    load_idx,
    synthetic_dataset,
)


def write_idx(images_path, labels_path, images_u8, labels_u8):
    """Inverse of load_idx, for fixtures (uint8 [n, h, w] and [n])."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels_u8 = np.asarray(labels_u8, dtype=np.uint8)
    n, rows, cols = images_u8.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images_u8.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels_u8)))
        fh.write(labels_u8.tobytes())


def make_pair(tmp_path, images, labels, stem="fix"):
    ip = str(tmp_path / f"{stem}-images")
    lp = str(tmp_path / f"{stem}-labels")
    write_idx(ip, lp, images, labels)
    return ip, lp


def tiny_pair(tmp_path, compress):
    """A two-image IDX pair, gzipped to ``<name>.gz`` when ``compress``."""
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    pair = make_pair(tmp_path, images, np.array([1, 7], dtype=np.uint8))
    if not compress:
        return pair
    for plain in pair:
        with open(plain, "rb") as fh:
            blob = gzip.compress(fh.read(), mtime=0)
        with open(plain + ".gz", "wb") as fh:
            fh.write(blob)
    return tuple(plain + ".gz" for plain in pair)


class TestLoadIdx:
    def test_round_trip_exact_pixels(self, tmp_path):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, (2, 28, 28), dtype=np.uint8)
        labels = np.array([3, 9], dtype=np.uint8)
        ds = load_idx(*make_pair(tmp_path, images, labels), name="fix",
                      split="test")
        assert ds.images.shape == (2, 1, 28, 28)
        assert np.array_equal(ds.labels, [3, 9])
        assert ds.split == "test"
        recovered = np.round(ds.images[:, 0] * 255).astype(np.uint8)
        assert np.array_equal(recovered, images)

    def test_pixel_range_is_unit_interval(self, tmp_path):
        images = np.array([np.full((4, 4), 255)], dtype=np.uint8)
        ds = load_idx(*make_pair(tmp_path, images, np.array([0], dtype=np.uint8)))
        assert ds.images.max() == 1.0
        assert ds.images.min() >= 0.0

    def test_bad_image_magic(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((1, 4, 4), np.uint8),
                           np.zeros(1, np.uint8))
        raw = bytearray(Path(ip).read_bytes())
        raw[:4] = struct.pack(">I", 0x00000807)
        Path(ip).write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((1, 4, 4), np.uint8),
                           np.zeros(1, np.uint8))
        raw = bytearray(Path(lp).read_bytes())
        raw[:4] = struct.pack(">I", 0x00000803)   # image magic on a label file
        Path(lp).write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match=lp.replace("\\", ".")):
            load_idx(ip, lp)

    def test_truncated_image_payload(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                           np.zeros(2, np.uint8))
        raw = Path(ip).read_bytes()
        Path(ip).write_bytes(raw[:-5])
        with pytest.raises(IdxFormatError, match="promises"):
            load_idx(ip, lp)

    def test_trailing_bytes_rejected(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((1, 4, 4), np.uint8),
                           np.zeros(1, np.uint8))
        with open(ip, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx(ip, lp)

    def test_label_trailing_bytes_name_the_offset(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                           np.zeros(2, np.uint8))
        with open(lp, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(IdxFormatError,
                           match=f"{lp}: 2 trailing bytes after offset 10"):
            load_idx(ip, lp)

    def test_pixels_bit_identical_to_float64_over_255(self, tmp_path):
        rng = np.random.default_rng(12)
        images = rng.integers(0, 256, (5, 7, 9), dtype=np.uint8)
        ds = load_idx(*make_pair(tmp_path, images, np.arange(5, dtype=np.uint8)))
        want = images.astype(np.float64).reshape(5, 1, 7, 9) / 255.0
        assert ds.images.dtype == np.float64
        assert ds.images.tobytes() == want.tobytes()

    def test_load_makes_one_float_array(self, tmp_path):
        rng = np.random.default_rng(13)
        pair = make_pair(tmp_path, rng.integers(0, 256, (3000, 28, 28), dtype=np.uint8),
                         np.zeros(3000, np.uint8))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ds = load_idx(*pair)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the raw bytes are an eighth of the images; a second float64
        # array would double them
        assert peak < 1.5 * ds.images.nbytes

    def test_count_mismatch(self, tmp_path):
        ip, _ = make_pair(tmp_path, np.zeros((3, 4, 4), np.uint8),
                          np.zeros(3, np.uint8), stem="a")
        _, lp = make_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                          np.zeros(2, np.uint8), stem="b")
        with pytest.raises(IdxFormatError, match="2 labels for 3 images"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("bad", [10, 12, 255])
    def test_label_outside_the_classes_names_file_and_offset(self, tmp_path, bad):
        # the first bad label is the third, after the 8-byte header
        ip, lp = make_pair(tmp_path, np.zeros((4, 4, 4), np.uint8),
                           np.array([9, 0, bad, 11], np.uint8))
        with pytest.raises(IdxFormatError,
                           match=f"^{lp}: label {bad} at offset 10 is not in \\[0, 10\\)$"):
            load_idx(ip, lp)

    def test_header_shorter_than_magic(self, tmp_path):
        ip = tmp_path / "stub"
        ip.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError):
            load_idx(str(ip), str(ip))

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_every_prefix_of_either_file_rejected(self, tmp_path, compress):
        pair = tiny_pair(tmp_path, compress)
        assert np.array_equal(load_idx(*pair).labels, [1, 7])
        for which in (0, 1):
            with open(pair[which], "rb") as fh:
                blob = fh.read()
            for cut in range(len(blob)):
                # a new file per prefix: replacing one file is far slower
                short = tmp_path / f"{which}-{cut}{'.gz' if compress else ''}"
                short.write_bytes(blob[:cut])
                paths = list(pair)
                paths[which] = str(short)
                with pytest.raises(IdxFormatError):
                    load_idx(*paths)

    def test_truncated_gzip_stream(self, tmp_path):
        ip, lp = tiny_pair(tmp_path, compress=True)
        blob = Path(ip).read_bytes()
        Path(ip).write_bytes(blob[:-10])
        with pytest.raises(IdxFormatError, match=f"{ip}: gzip stream ends"):
            load_idx(ip, lp)

    def test_corrupt_gzip_file(self, tmp_path):
        ip, lp = tiny_pair(tmp_path, compress=True)
        blob = bytearray(Path(ip).read_bytes())
        blob[-8] ^= 0xFF                       # the CRC-32 trailer
        Path(ip).write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match=f"{ip}: corrupt gzip data"):
            load_idx(ip, lp)

    def test_corrupt_deflate_data(self, tmp_path):
        ip, lp = tiny_pair(tmp_path, compress=True)
        blob = bytearray(Path(ip).read_bytes())
        blob[10] = 0b111                        # final block of reserved type 3
        Path(ip).write_bytes(bytes(blob))
        with pytest.raises(IdxFormatError, match=f"{ip}: corrupt gzip data"):
            load_idx(ip, lp)


class TestDataset:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((3, 1, 4, 4)), labels=np.zeros(2, np.int64),
                    name="x", split="train")

    def test_images_must_be_4d(self):
        with pytest.raises(ValueError, match="4-d"):
            Dataset(images=np.zeros((3, 4, 4)), labels=np.zeros(3, np.int64),
                    name="x", split="train")

    # NaN fails every comparison, so the check must be one that it fails.
    @pytest.mark.parametrize("value", [1.5, -0.1, np.nan])
    def test_pixel_range_enforced(self, value):
        with pytest.raises(ValueError):
            Dataset(images=np.full((1, 1, 2, 2), value),
                    labels=np.zeros(1, np.int64), name="x", split="train")

    def test_subset(self):
        ds = synthetic_dataset(seed=0, n=20)
        sub = ds.subset(5)
        assert len(sub) == 5
        assert np.array_equal(sub.images, ds.images[:5])
        assert ds.subset(None) is ds
        assert ds.subset(100) is ds
        for bad in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                ds.subset(bad)

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((1, 1, 2, 2)), labels=np.zeros(1, np.int64),
                    name="x", split="validation")


class TestAugmentShift:
    def test_single_pixel_translates(self):
        # Force a known draw by stubbing the generator.
        class Fixed:
            def integers(self, lo, hi, size):
                return np.array([0, 2])   # dy=0, dx=2

        img = np.zeros((1, 28, 28))
        img[0, 10, 10] = 1.0
        out = augment_shift(img, Fixed())
        assert out[0, 10, 12] == 1.0
        assert out.sum() == 1.0

    def test_negative_shift_translates_up_left(self):
        class Fixed:
            def integers(self, lo, hi, size):
                return np.array([-2, -1])

        img = np.zeros((1, 8, 8))
        img[0, 4, 4] = 1.0
        out = augment_shift(img, Fixed())
        assert out[0, 2, 3] == 1.0
        assert out.sum() == 1.0

    def test_mass_conserved_away_from_border(self):
        rng = np.random.default_rng(22)
        img = np.zeros((1, 28, 28))
        img[0, 8:20, 8:20] = rng.uniform(0.1, 1.0, (12, 12))
        for _ in range(50):
            out = augment_shift(img, rng)
            assert sorted(out[out > 0]) == pytest.approx(sorted(img[img > 0]))

    def test_content_crossing_border_is_cropped(self):
        class Fixed:
            def integers(self, lo, hi, size):
                return np.array([0, 2])

        img = np.zeros((1, 4, 4))
        img[0, 0, 3] = 1.0
        out = augment_shift(img, Fixed())
        assert out.sum() == 0.0


class TestBatches:
    def test_sizes_with_partial_tail(self):
        ds = synthetic_dataset(seed=0, n=300)
        sizes = [len(lab) for _, lab in batches(ds, 128, shuffle_seed=1)]
        assert sizes == [128, 128, 44]

    def test_same_seed_same_order(self):
        ds = synthetic_dataset(seed=0, n=50)
        a = [lab.tolist() for _, lab in batches(ds, 16, shuffle_seed=5)]
        b = [lab.tolist() for _, lab in batches(ds, 16, shuffle_seed=5)]
        assert a == b

    def test_distinct_seeds_distinct_orders(self):
        ds = synthetic_dataset(seed=0, n=120)
        orders = set()
        for s in range(4):
            order = tuple(int(x) for _, lab in batches(ds, 40, shuffle_seed=s)
                          for x in lab)
            orders.add(order)
        assert len(orders) == 4

    def test_union_covers_dataset_exactly_once(self):
        ds = synthetic_dataset(seed=3, n=97)
        seen = np.concatenate([img.sum(axis=(1, 2, 3)) for img, _ in
                               batches(ds, 10, shuffle_seed=2)])
        want = np.sort(ds.images.sum(axis=(1, 2, 3)))
        assert np.allclose(np.sort(seen), want, atol=1e-12)

    def test_shuffle_keeps_each_image_with_its_label(self):
        ds = synthetic_dataset(seed=0, n=30)
        images, labels = (np.concatenate(part) for part in zip(*batches(ds, 7, shuffle_seed=3)))
        assert not np.array_equal(labels, ds.labels)
        got = np.argsort(images.sum(axis=(1, 2, 3)))
        want = np.argsort(ds.images.sum(axis=(1, 2, 3)))
        assert np.array_equal(labels[got], ds.labels[want])

    def test_augmentation_only_on_train_split(self):
        for split, shifted in (("train", True), ("test", False)):
            ds = synthetic_dataset(seed=1, n=10, split=split)
            plain = next(batches(ds, 10, shuffle_seed=0))[0]
            augmented = next(batches(ds, 10, shuffle_seed=0, augment=True))[0]
            assert np.array_equal(augmented, plain) != shifted

    def test_augmented_batches_are_deterministic_per_seed(self):
        ds = synthetic_dataset(seed=1, n=20)
        a = np.concatenate([im for im, _ in batches(ds, 8, 9, augment=True)])
        b = np.concatenate([im for im, _ in batches(ds, 8, 9, augment=True)])
        assert np.array_equal(a, b)

    def test_invalid_batch_size_rejected(self):
        ds = synthetic_dataset(seed=0, n=10)
        with pytest.raises(ValueError):
            list(batches(ds, 0, shuffle_seed=0))


class TestSyntheticDataset:
    def test_deterministic(self):
        a = synthetic_dataset(seed=4, n=40)
        b = synthetic_dataset(seed=4, n=40)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_every_class_present(self):
        ds = synthetic_dataset(seed=0, n=100)
        assert set(ds.labels.tolist()) == set(range(10))
        counts = np.bincount(ds.labels, minlength=10)
        assert (counts >= 1).all()

    def test_shapes_and_range(self):
        ds = synthetic_dataset(seed=2, n=12)
        assert ds.images.shape == (12, 1, 28, 28)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_classes_are_visually_distinct(self):
        ds = synthetic_dataset(seed=5, n=10)
        # bar rows differ per class: compare brightest-row indices
        rows = ds.images[:, 0].sum(axis=2).argmax(axis=1)
        assert len(set(rows.tolist())) == 10

    def test_requires_at_least_one_per_class(self):
        with pytest.raises(ValueError):
            synthetic_dataset(seed=0, n=5)
