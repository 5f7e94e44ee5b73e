"""Data layer checks: IDX parsing against hand-built fixtures, shift
augmentation semantics, batch iteration arithmetic, and the synthetic
fixture generator."""

import gzip
import struct

import numpy as np
import pytest

from gcaps.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxTruncatedError,
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
        raw = bytearray(open(ip, "rb").read())
        raw[:4] = struct.pack(">I", 0x00000807)
        open(ip, "wb").write(bytes(raw))
        with pytest.raises(IdxMagicError, match="bad magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((1, 4, 4), np.uint8),
                           np.zeros(1, np.uint8))
        raw = bytearray(open(lp, "rb").read())
        raw[:4] = struct.pack(">I", 0x00000803)   # image magic on a label file
        open(lp, "wb").write(bytes(raw))
        with pytest.raises(IdxMagicError, match=lp.replace("\\", ".")):
            load_idx(ip, lp)

    def test_truncated_image_payload(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                           np.zeros(2, np.uint8))
        raw = open(ip, "rb").read()
        open(ip, "wb").write(raw[:-5])
        with pytest.raises(IdxTruncatedError, match="promises"):
            load_idx(ip, lp)

    def test_trailing_bytes_rejected(self, tmp_path):
        ip, lp = make_pair(tmp_path, np.zeros((1, 4, 4), np.uint8),
                           np.zeros(1, np.uint8))
        with open(ip, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _ = make_pair(tmp_path, np.zeros((3, 4, 4), np.uint8),
                          np.zeros(3, np.uint8), stem="a")
        _, lp = make_pair(tmp_path, np.zeros((2, 4, 4), np.uint8),
                          np.zeros(2, np.uint8), stem="b")
        with pytest.raises(IdxCountMismatchError, match="2 labels for 3 images"):
            load_idx(ip, lp)

    def test_header_shorter_than_magic(self, tmp_path):
        ip = tmp_path / "stub"
        ip.write_bytes(b"\x00\x00")
        with pytest.raises(IdxTruncatedError):
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
        blob = open(ip, "rb").read()
        open(ip, "wb").write(blob[:-10])
        with pytest.raises(IdxTruncatedError, match=f"{ip}: gzip stream ends"):
            load_idx(ip, lp)

    def test_corrupt_gzip_file(self, tmp_path):
        ip, lp = tiny_pair(tmp_path, compress=True)
        blob = bytearray(open(ip, "rb").read())
        blob[-8] ^= 0xFF                       # the CRC-32 trailer
        open(ip, "wb").write(bytes(blob))
        with pytest.raises(IdxFormatError, match=f"{ip}: corrupt gzip data"):
            load_idx(ip, lp)

    def test_corrupt_deflate_data(self, tmp_path):
        ip, lp = tiny_pair(tmp_path, compress=True)
        blob = bytearray(open(ip, "rb").read())
        blob[10] = 0b111                        # final block of reserved type 3
        open(ip, "wb").write(bytes(blob))
        with pytest.raises(IdxFormatError, match=f"{ip}: corrupt gzip data"):
            load_idx(ip, lp)


class TestDataset:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((3, 1, 4, 4)), labels=np.zeros(2, np.int64),
                    name="x", split="train")

    def test_pixel_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(images=np.full((1, 1, 2, 2), 1.5),
                    labels=np.zeros(1, np.int64), name="x", split="train")

    def test_subset(self):
        ds = synthetic_dataset(seed=0, n=20)
        sub = ds.subset(5)
        assert len(sub) == 5
        assert np.array_equal(sub.images, ds.images[:5])
        assert ds.subset(None) is ds
        assert ds.subset(100) is ds

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((1, 1, 2, 2)), labels=np.zeros(1, np.int64),
                    name="x", split="validation")


class TestAugmentShift:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(21)
        img = rng.uniform(0, 1, (1, 8, 8))
        out = augment_shift(img, 0, rng)
        assert np.array_equal(out, img)
        assert out is not img

    def test_single_pixel_translates(self):
        # Force a known draw by stubbing the generator.
        class Fixed:
            def integers(self, lo, hi, size):
                return np.array([0, 2])   # dy=0, dx=2

        img = np.zeros((1, 28, 28))
        img[0, 10, 10] = 1.0
        out = augment_shift(img, 2, Fixed())
        assert out[0, 10, 12] == 1.0
        assert out.sum() == 1.0

    def test_negative_shift_translates_up_left(self):
        class Fixed:
            def integers(self, lo, hi, size):
                return np.array([-2, -1])

        img = np.zeros((1, 8, 8))
        img[0, 4, 4] = 1.0
        out = augment_shift(img, 2, Fixed())
        assert out[0, 2, 3] == 1.0
        assert out.sum() == 1.0

    def test_mass_conserved_away_from_border(self):
        rng = np.random.default_rng(22)
        img = np.zeros((1, 28, 28))
        img[0, 8:20, 8:20] = rng.uniform(0.1, 1.0, (12, 12))
        for _ in range(50):
            out = augment_shift(img, 2, rng)
            assert sorted(out[out > 0]) == pytest.approx(sorted(img[img > 0]))

    def test_content_crossing_border_is_cropped(self):
        class Fixed:
            def integers(self, lo, hi, size):
                return np.array([0, 2])

        img = np.zeros((1, 4, 4))
        img[0, 0, 3] = 1.0
        out = augment_shift(img, 2, Fixed())
        assert out.sum() == 0.0

    def test_negative_max_shift_rejected(self):
        with pytest.raises(ValueError):
            augment_shift(np.zeros((1, 4, 4)), -1, np.random.default_rng(0))


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

    def test_no_shuffle_preserves_order(self):
        ds = synthetic_dataset(seed=0, n=30)
        flat = np.concatenate([lab for _, lab in batches(ds, 7)])
        assert np.array_equal(flat, ds.labels)

    def test_augmentation_only_on_train_split(self):
        train = synthetic_dataset(seed=1, n=10, split="train")
        test = synthetic_dataset(seed=1, n=10, split="test")
        aug_train = next(batches(train, 10, augment=True))[0]
        aug_test = next(batches(test, 10, augment=True))[0]
        assert not np.array_equal(aug_train, train.images)
        assert np.array_equal(aug_test, test.images)

    def test_augmented_batches_are_deterministic_per_seed(self):
        ds = synthetic_dataset(seed=1, n=20)
        a = np.concatenate([im for im, _ in batches(ds, 8, 9, augment=True)])
        b = np.concatenate([im for im, _ in batches(ds, 8, 9, augment=True)])
        assert np.array_equal(a, b)

    def test_invalid_batch_size_rejected(self):
        ds = synthetic_dataset(seed=0, n=10)
        with pytest.raises(ValueError):
            list(batches(ds, 0))


class TestSyntheticDataset:
    def test_deterministic(self):
        a = synthetic_dataset(seed=4, n=40)
        b = synthetic_dataset(seed=4, n=40)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_every_class_present(self):
        ds = synthetic_dataset(seed=0, n=100, num_classes=10)
        assert set(ds.labels.tolist()) == set(range(10))
        counts = np.bincount(ds.labels, minlength=10)
        assert (counts >= 1).all()

    def test_shapes_and_range(self):
        ds = synthetic_dataset(seed=2, n=12)
        assert ds.images.shape == (12, 1, 28, 28)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_classes_are_visually_distinct(self):
        ds = synthetic_dataset(seed=5, n=10, num_classes=10)
        # bar rows differ per class: compare brightest-row indices
        rows = ds.images[:, 0].sum(axis=2).argmax(axis=1)
        assert len(set(rows.tolist())) == 10

    def test_requires_at_least_one_per_class(self):
        with pytest.raises(ValueError):
            synthetic_dataset(seed=0, n=5, num_classes=10)
