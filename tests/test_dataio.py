"""IDX parsing, dataset containers, and the synthetic corner-blob data."""

from __future__ import annotations

import gzip
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clare.dataio import (
    MNIST_FILES,
    IdxFormatError,
    LabeledDataset,
    as_pixels,
    load_mnist,
    make_toy_dataset,
    parse_idx,
    scale_pixels,
    subset_by_classes,
    toy_centers,
    write_idx,
)

# 1x2x2 ubyte tensor, written out by hand from the format definition:
# magic 00 00, type 0x08 (ubyte), rank 3, big-endian dims 1,2,2, then data.
HAND_IDX = bytes(
    [0x00, 0x00, 0x08, 0x03,
     0x00, 0x00, 0x00, 0x01,
     0x00, 0x00, 0x00, 0x02,
     0x00, 0x00, 0x00, 0x02,
     0xAA, 0xBB, 0xCC, 0xDD]
)


class TestParseIdx:
    def test_hand_encoded_tensor(self):
        array = parse_idx(HAND_IDX)
        assert array.dtype == np.uint8
        assert array.shape == (1, 2, 2)
        assert_allclose(array, [[[0xAA, 0xBB], [0xCC, 0xDD]]])

    def test_rank_one_empty(self):
        array = parse_idx(bytes([0, 0, 0x08, 0x01, 0, 0, 0, 0]))
        assert array.shape == (0,)

    def test_write_then_parse_is_identity(self):
        rng = np.random.default_rng(0)
        for shape in [(7,), (3, 4), (2, 5, 6)]:
            original = rng.integers(0, 256, size=shape, dtype=np.uint8)
            back = parse_idx(write_idx(original))
            assert back.shape == shape
            assert np.array_equal(back, original)

    def test_gzip_transparency(self):
        array = parse_idx(gzip.compress(HAND_IDX))
        assert array.shape == (1, 2, 2)
        assert array[0, 1, 1] == 0xDD

    def test_truncated_gzip_rejected(self):
        with pytest.raises(IdxFormatError, match="gzip stream is corrupt: .*end-of-stream"):
            parse_idx(gzip.compress(HAND_IDX)[:-10])

    def test_corrupt_deflate_stream_rejected(self):
        # The deflate stream starts at byte 10; setting bits 1-2 of its first
        # byte makes the block type 3, which deflate reserves.
        mangled = bytearray(gzip.compress(HAND_IDX))
        mangled[10] |= 0b110
        with pytest.raises(IdxFormatError, match="gzip stream is corrupt: .*invalid block type"):
            parse_idx(bytes(mangled))

    def test_corrupt_gzip_rejected(self):
        mangled = gzip.compress(HAND_IDX)[:-4] + b"\x00\x00\x00\x00"
        with pytest.raises(IdxFormatError, match="gzip"):
            parse_idx(mangled)

    def test_bad_magic_names_offset_zero(self):
        with pytest.raises(IdxFormatError, match="offset 0"):
            parse_idx(b"\x12\x34" + HAND_IDX[2:])

    def test_unknown_type_code_names_offset_two(self):
        with pytest.raises(IdxFormatError, match="offset 2"):
            parse_idx(bytes([0, 0, 0x77, 0x01, 0, 0, 0, 0]))

    def test_truncated_payload_names_required_size(self):
        with pytest.raises(IdxFormatError, match="require 20 bytes"):
            parse_idx(HAND_IDX[:-1])

    def test_trailing_bytes_are_not_called_truncation(self):
        dims_2x3 = bytes([0, 0, 0x08, 0x02, 0, 0, 0, 2, 0, 0, 0, 3])
        with pytest.raises(IdxFormatError) as err:
            parse_idx(dims_2x3 + bytes(8))
        assert str(err.value) == "trailing bytes: payload ends at offset 18, file has 20"

    def test_truncated_header_rejected(self):
        with pytest.raises(IdxFormatError, match="dimensions"):
            parse_idx(bytes([0, 0, 0x08, 0x02, 0, 0, 0, 1]))

    def test_too_short_for_magic(self):
        with pytest.raises(IdxFormatError, match="too short"):
            parse_idx(b"\x00\x00")

    def test_write_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            write_idx(np.zeros((2, 2), dtype=np.float64))

    def test_idx_error_is_a_value_error(self):
        assert issubclass(IdxFormatError, ValueError)


class TestLabeledDataset:
    def _dataset(self):
        return LabeledDataset(
            images=np.linspace(0, 1, 12).reshape(6, 2),
            labels=np.array([0, 0, 1, 2, 1, 0]),
        )

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="align"):
            LabeledDataset(images=np.zeros((3, 2)), labels=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="2-d"):
            LabeledDataset(images=np.zeros(3), labels=np.zeros(3, dtype=np.int64))

    def test_len_is_the_row_count(self):
        assert len(self._dataset()) == self._dataset().n == 6

    def test_counts_and_classes(self):
        ds = self._dataset()
        assert ds.n == 6
        assert ds.dim == 2
        assert ds.classes() == [0, 1, 2]
        assert ds.per_class_counts() == {0: 3, 1: 2, 2: 1}

    def test_per_class_counts_is_a_fresh_dict_each_call(self):
        ds = self._dataset()
        counts = ds.per_class_counts()
        counts[0] = 99
        counts[7] = 1
        assert ds.classes() == [0, 1, 2]
        assert ds.per_class_counts() == {0: 3, 1: 2, 2: 1}

    def test_subset_preserves_row_order(self):
        ds = self._dataset()
        sub = subset_by_classes(ds, [0, 2])
        assert sub.labels.tolist() == [0, 0, 2, 0]
        assert np.array_equal(sub.images[0], ds.images[0])
        assert np.array_equal(sub.images[2], ds.images[3])

    def test_subset_with_all_classes_is_identity(self):
        ds = self._dataset()
        sub = subset_by_classes(ds, [0, 1, 2])
        assert np.array_equal(sub.images, ds.images)
        assert np.array_equal(sub.labels, ds.labels)

    def test_subset_of_nothing_is_empty(self):
        sub = subset_by_classes(self._dataset(), [])
        assert sub.n == 0
        assert sub.dim == 2

    def test_subset_missing_class_rejected(self):
        with pytest.raises(ValueError, match=r"\[5\]"):
            subset_by_classes(self._dataset(), [0, 5])

    def test_subset_keeps_pixel_bytes(self):
        images = np.arange(12, dtype=np.uint8).reshape(6, 2)
        ds = LabeledDataset(images=images, labels=np.array([0, 0, 1, 2, 1, 0]))
        sub = subset_by_classes(ds, [1, 2])
        assert sub.images.dtype == np.uint8
        assert np.array_equal(sub.images, images[[2, 3, 4]])


class TestPixels:
    def test_every_byte_scales_as_the_float_corpus_did(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = np.empty((16, 16))
        assert scale_pixels(pixels, out) is out
        assert np.array_equal(out, pixels.astype(np.float64) / 255.0)
        assert out[0, 0] == 0.0 and out[-1, -1] == 1.0

    def test_float_values_are_copied_as_they_are(self):
        values = np.random.default_rng(3).uniform(size=(4, 5))
        out = np.empty((4, 5))
        scale_pixels(values, out)
        assert np.array_equal(out, values)

    def test_bytes_stay_bytes_and_other_input_becomes_float64(self):
        pixels = np.zeros((2, 3), dtype=np.uint8)
        assert as_pixels(pixels) is pixels
        values = as_pixels([[1, 2], [3, 4]])
        assert values.dtype == np.float64 and values.flags.c_contiguous
        strided = np.ones((4, 6))[:, ::2]
        assert as_pixels(strided).flags.c_contiguous


class TestToyDataset:
    def test_shapes_and_counts(self):
        ds = make_toy_dataset(3, 50, dim=16, spread=0.05, seed=1)
        assert ds.n == 150
        assert ds.dim == 16
        assert ds.per_class_counts() == {0: 50, 1: 50, 2: 50}
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_zero_spread_hits_the_centers_exactly(self):
        ds = make_toy_dataset(4, 10, dim=4, spread=0.0, seed=2)
        centers = toy_centers(4, 4)
        for cls in range(4):
            rows = ds.images[ds.labels == cls]
            assert np.array_equal(rows, np.tile(centers[cls], (10, 1)))

    def test_same_seed_same_bits(self):
        a = make_toy_dataset(3, 20, dim=8, spread=0.1, seed=9)
        b = make_toy_dataset(3, 20, dim=8, spread=0.1, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_sample_means_near_centers(self):
        ds = make_toy_dataset(2, 4000, dim=6, spread=0.05, seed=3)
        centers = toy_centers(2, 6)
        for cls in range(2):
            mean = ds.images[ds.labels == cls].mean(axis=0)
            assert np.abs(mean - centers[cls]).max() < 0.01

    def test_centers_differ_between_classes(self):
        centers = toy_centers(4, 2)
        # Corner coding: distinct classes occupy distinct corners.
        assert len({tuple(row) for row in centers}) == 4

    def test_center_coordinates_follow_class_bits(self):
        centers = toy_centers(3, 2)
        assert_allclose(centers, [[0.2, 0.2], [0.8, 0.2], [0.2, 0.8]])

    def test_too_many_classes_for_dim_rejected(self):
        with pytest.raises(ValueError, match="corners"):
            make_toy_dataset(5, 10, dim=2)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            make_toy_dataset(2, 10, dim=2, spread=-0.1)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="spread must be finite"):
            make_toy_dataset(2, 3, dim=2, spread=spread)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_toy_dataset(0, 10)
        with pytest.raises(ValueError):
            make_toy_dataset(2, 0)


class TestLoadMnist:
    def test_missing_files_reported_with_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="train-images-idx3-ubyte"):
            load_mnist(str(tmp_path))

    @pytest.mark.parametrize("gz", [False, True])
    def test_a_malformed_file_is_named(self, tmp_path, gz):
        rng = np.random.default_rng(9)
        for name in MNIST_FILES.values():
            shape = (6, 2, 2) if "images" in name else (6,)
            (tmp_path / name).write_bytes(write_idx(rng.integers(0, 4, shape, dtype=np.uint8)))
        bad = tmp_path / MNIST_FILES["test_images"]
        blob = bad.read_bytes()
        if gz:
            bad.unlink()
            bad = bad.with_name(bad.name + ".gz")
            blob = gzip.compress(blob)
        bad.write_bytes(blob[:-3])
        with pytest.raises(IdxFormatError) as err:
            load_mnist(str(tmp_path))
        want = "gzip stream is corrupt" if gz else "payload truncated at offset 37"
        assert str(err.value).startswith(f"{bad}: {want}"), str(err.value)

    @pytest.mark.parametrize("test_shape", [(27, 27), (1, 784)])
    def test_train_and_test_images_of_different_shapes_name_both_files(
        self, tmp_path, test_shape
    ):
        # 27x27 test images would stop the run at its first evaluation;
        # 1x784 ones have the training rows' width but not their shape. The
        # test images are gzipped, so the error names the file it read.
        for name, payload in zip(MNIST_FILES.values(), [
            np.zeros((4, 28, 28), dtype=np.uint8), np.zeros(4, dtype=np.uint8),
            np.zeros((2, *test_shape), dtype=np.uint8), np.zeros(2, dtype=np.uint8),
        ]):
            (tmp_path / name).write_bytes(write_idx(payload))
        test_file = tmp_path / MNIST_FILES["test_images"]
        gz_file = test_file.with_name(test_file.name + ".gz")
        gz_file.write_bytes(gzip.compress(test_file.read_bytes()))
        test_file.unlink()
        with pytest.raises(IdxFormatError) as err:
            load_mnist(str(tmp_path))
        assert str(err.value) == (
            f"image shapes differ: {tmp_path / MNIST_FILES['train_images']} holds (28, 28) "
            f"images, {gz_file} holds {test_shape}"
        )

    def test_round_trip_through_files(self, tmp_path):
        rng = np.random.default_rng(4)
        train_x = rng.integers(0, 256, size=(10, 3, 3), dtype=np.uint8)
        train_y = rng.integers(0, 4, size=10).astype(np.uint8)
        test_x = rng.integers(0, 256, size=(6, 3, 3), dtype=np.uint8)
        test_y = rng.integers(0, 4, size=6).astype(np.uint8)
        names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                 "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
        for name, payload in zip(names, [train_x, train_y, test_x, test_y]):
            # Exercise both storage variants in one pass.
            if "labels" in name:
                (tmp_path / (name + ".gz")).write_bytes(gzip.compress(write_idx(payload)))
            else:
                (tmp_path / name).write_bytes(write_idx(payload))
        train, test = load_mnist(str(tmp_path))
        assert train.n == 10
        assert test.n == 6
        assert train.dim == 9
        # The corpus keeps the files' bytes; its float values are byte / 255.
        assert train.images.dtype == np.uint8
        assert np.array_equal(train.images, train_x.reshape(10, 9))
        assert np.array_equal(train.images / 255.0, train_x.reshape(10, 9) / 255.0)
        assert test.images.dtype == np.uint8
        assert np.array_equal(test.images, test_x.reshape(6, 9))
        assert train.labels.tolist() == train_y.tolist()

    def test_load_holds_no_float_pixels(self, tmp_path):
        # 2,000 784-wide rows are 12.5 MB as float64 and 1.6 MB as bytes.
        rng = np.random.default_rng(6)
        train_x = rng.integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        test_x = rng.integers(0, 256, size=(200, 28, 28), dtype=np.uint8)
        for name, payload in zip(MNIST_FILES.values(), [
            train_x, np.arange(2000, dtype=np.uint8) % 10,
            test_x, np.arange(200, dtype=np.uint8) % 10,
        ]):
            (tmp_path / name).write_bytes(write_idx(payload))
        tracemalloc.start()
        try:
            train, test = load_mnist(str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert train.images.shape == (2000, 784)
        assert peak < train_x.size * np.dtype(np.float64).itemsize

    def test_load_peaks_at_its_result(self, tmp_path):
        # Each file is read once; the images are a view of those bytes.
        rng = np.random.default_rng(7)
        train_x = rng.integers(0, 256, size=(6000, 28, 28), dtype=np.uint8)
        test_x = rng.integers(0, 256, size=(1000, 28, 28), dtype=np.uint8)
        for name, payload in zip(MNIST_FILES.values(), [
            train_x, np.arange(6000, dtype=np.uint8) % 10,
            test_x, np.arange(1000, dtype=np.uint8) % 10,
        ]):
            (tmp_path / name).write_bytes(write_idx(payload))
        tracemalloc.start()
        try:
            train, test = load_mnist(str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = sum(d.images.nbytes + d.labels.nbytes for d in (train, test))
        assert peak < 1.1 * result, f"peak {peak} bytes for a {result}-byte result"
        assert not train.images.flags.writeable and not test.images.flags.writeable
        assert np.array_equal(train.images, train_x.reshape(6000, 784))

    @pytest.mark.skipif(
        not os.environ.get("CLARE_DATA_DIR")
        or not os.path.exists(
            os.path.join(os.environ.get("CLARE_DATA_DIR", ""), "train-images-idx3-ubyte")
        )
        and not os.path.exists(
            os.path.join(os.environ.get("CLARE_DATA_DIR", ""), "train-images-idx3-ubyte.gz")
        ),
        reason="digit image files not present",
    )
    def test_full_corpus_dimensions(self):
        train, test = load_mnist(os.environ["CLARE_DATA_DIR"])
        assert train.n == 60000
        assert test.n == 10000
        assert train.dim == 784
        assert train.classes() == list(range(10))
