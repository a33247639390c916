"""Dataset loading: IDX files (MNIST's format), plus a synthetic toy set.

IDX is the classic big-endian binary layout: two zero bytes, a type code,
a rank byte, ``rank`` u32 dimensions, then the raw payload. Gzipped files
are handled transparently by sniffing the two-byte gzip magic. Images stay
the IDX payload's bytes, one uint8 per pixel, flattened per row; labels
become int64. ``scale_pixels`` is the one place that turns pixels into
float64: byte ``b`` reads as ``b / 255.0``, so a value lies in [0, 1]. The
training step, the classifier and an increment's training array call it
on the rows they read, so the corpus itself is never held as floats.

``replacing`` is the one way the package writes a file (a checkpoint, a
report, its CSV): into ``path + ".tmp"``, renamed over ``path`` when done.

The toy generator drops Gaussian blobs on corners of ``[0.2, 0.8]^dim`` so
miniature end-to-end runs have a dataset that trains in seconds.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

IDX_TYPE_UBYTE = 0x08  # unsigned byte: the one IDX type MNIST uses and this module reads

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxFormatError(ValueError):
    """The bytes do not form a valid IDX file; the message says where."""


@dataclass
class LabeledDataset:
    """Flattened images, one row each, with aligned int64 labels.

    ``images`` is either uint8, as ``load_mnist`` returns it, holding pixel
    bytes whose values are ``byte / 255.0`` (see ``scale_pixels``), or float64
    holding the values themselves, as toy blobs and replay do. ``len()`` is ``n``.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 2:
            raise ValueError(f"images must be 2-d, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not align with "
                f"{self.images.shape[0]} images"
            )

    def __len__(self) -> int:
        return self.n

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def dim(self) -> int:
        return self.images.shape[1]

    @cached_property
    def _class_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.labels, return_counts=True)

    def classes(self) -> list[int]:
        """The labels present, ascending."""
        return self._class_counts[0].tolist()

    def per_class_counts(self) -> dict[int, int]:
        """Rows per class, ascending class order; a new dict on each call."""
        return dict(zip(*(part.tolist() for part in self._class_counts)))


def parse_idx(data: bytes) -> np.ndarray:
    """Decode one IDX file's bytes (gzipped or raw) into its array.

    The shape is the header's dims and the dtype uint8, the one type read
    here; the array is a read-only view of the payload's bytes, not a copy.
    """
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise IdxFormatError(f"gzip stream is corrupt: {exc}") from exc
    if len(data) < 4:
        raise IdxFormatError(f"file is {len(data)} bytes, too short for a magic number")
    if data[0] != 0 or data[1] != 0:
        raise IdxFormatError(
            f"bad magic bytes {data[0]:#04x} {data[1]:#04x} at offset 0, expected 00 00"
        )
    type_code = data[2]
    if type_code != IDX_TYPE_UBYTE:
        raise IdxFormatError(f"unsupported type code {type_code:#04x} at offset 2")
    rank = data[3]
    header_end = 4 + 4 * rank
    if len(data) < header_end:
        raise IdxFormatError(
            f"file is {len(data)} bytes, too short for {rank} dimensions "
            f"(need {header_end})"
        )
    dims = struct.unpack(f">{rank}I", data[4:header_end])
    count = math.prod(dims)
    expected = header_end + count
    if len(data) < expected:
        raise IdxFormatError(
            f"payload truncated at offset {len(data)}: dims {dims} require "
            f"{expected} bytes"
        )
    if len(data) > expected:
        raise IdxFormatError(
            f"trailing bytes: payload ends at offset {expected}, file has {len(data)}"
        )
    array = np.frombuffer(data, dtype=np.uint8, count=count, offset=header_end)
    return array.reshape(dims)


def write_idx(array: np.ndarray) -> bytes:
    """Encode a uint8 array as IDX bytes; inverse of ``parse_idx``."""
    array = np.ascontiguousarray(array)
    if array.dtype != np.uint8:
        raise ValueError(f"IDX ubyte payload requires uint8 data, got {array.dtype}")
    if array.ndim > 255:
        raise ValueError(f"rank {array.ndim} does not fit the IDX header")
    header = bytes([0, 0, IDX_TYPE_UBYTE, array.ndim])
    header += struct.pack(f">{array.ndim}I", *array.shape)
    return header + array.tobytes()


@contextlib.contextmanager
def replacing(path: str, mode: str, **kwargs):
    """Open ``path + ".tmp"`` for writing; on success rename it over ``path``.

    ``mode`` and ``kwargs`` go to ``open``. The rename (``os.replace``)
    comes after the file is closed, so a write that fails part way leaves
    whatever was at ``path`` whole, and the temporary is removed.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_idx_file(path: str) -> tuple[str, np.ndarray]:
    """The file read and ``parse_idx`` of it: ``path``, else ``path + ".gz"``.

    Errors name the file.
    """
    for candidate in (path, path + ".gz"):
        if os.path.exists(candidate):
            with open(candidate, "rb") as fh:
                try:
                    return candidate, parse_idx(fh.read())
                except IdxFormatError as exc:
                    raise IdxFormatError(f"{candidate}: {exc}") from exc
    raise FileNotFoundError(f"no such file: {path} (also tried {path}.gz)")


def _to_dataset(images_raw: np.ndarray, labels_raw: np.ndarray, what: str) -> LabeledDataset:
    if images_raw.ndim < 2:
        raise IdxFormatError(f"{what} images must have rank >= 2, got {images_raw.ndim}")
    if labels_raw.ndim != 1:
        raise IdxFormatError(f"{what} labels must have rank 1, got {labels_raw.ndim}")
    if images_raw.shape[0] != labels_raw.shape[0]:
        raise ValueError(
            f"{what}: {images_raw.shape[0]} images but {labels_raw.shape[0]} labels"
        )
    images = images_raw.reshape(images_raw.shape[0], -1)
    return LabeledDataset(images=images, labels=labels_raw.astype(np.int64))


def load_mnist(data_dir: str) -> tuple[LabeledDataset, LabeledDataset]:
    """Load the four standard IDX files (plain or .gz) from ``data_dir``.

    Images keep the files' uint8 pixel bytes, as a read-only view of each
    file's one read; nothing is copied or converted to float. Training and
    test images of different shapes raise ``IdxFormatError`` naming both
    image files.
    """
    read = {key: _read_idx_file(os.path.join(data_dir, name)) for key, name in MNIST_FILES.items()}
    (train_file, train_x), (_, train_y) = read["train_images"], read["train_labels"]
    (test_file, test_x), (_, test_y) = read["test_images"], read["test_labels"]
    train, test = _to_dataset(train_x, train_y, "train"), _to_dataset(test_x, test_y, "test")
    if train_x.shape[1:] != test_x.shape[1:]:
        raise IdxFormatError(
            f"image shapes differ: {train_file} holds {train_x.shape[1:]} images, "
            f"{test_file} holds {test_x.shape[1:]}"
        )
    return train, test


def as_pixels(images) -> np.ndarray:
    """``images`` as pixel rows: uint8 pixel bytes as they are, anything else
    as contiguous float64 values."""
    images = np.asarray(images)
    if images.dtype == np.uint8:
        return images
    return np.ascontiguousarray(images, dtype=np.float64)


def scale_pixels(images: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the float64 values of pixel rows ``images`` into ``out``.

    A uint8 array holds pixel bytes, and byte ``b`` reads as ``b / 255.0``,
    one IEEE division, the same one that scaled the corpus on load before it
    was kept as bytes. Any other array holds the values already and is
    copied as it is. Returns ``out``.
    """
    if images.dtype == np.uint8:
        return np.divide(images, 255.0, out=out)
    np.copyto(out, images)
    return out


def subset_by_classes(dataset: LabeledDataset, class_ids: list[int]) -> LabeledDataset:
    """Rows whose label is in ``class_ids``, original order preserved."""
    wanted = set(int(c) for c in class_ids)
    missing = wanted - set(dataset.classes())
    if missing:
        raise ValueError(f"classes {sorted(missing)} not present in dataset")
    mask = np.isin(dataset.labels, sorted(wanted))
    return LabeledDataset(images=dataset.images[mask], labels=dataset.labels[mask])


def make_toy_dataset(
    n_classes: int,
    n_per_class: int,
    dim: int = 16,
    spread: float = 0.05,
    seed: int = 0,
) -> LabeledDataset:
    """Gaussian blobs centered on distinct corners of ``[0.2, 0.8]^dim``.

    Class ``k`` sits on the corner whose coordinates follow the bits of
    ``k``, so any two centers differ in at least one axis by 0.6. Samples
    are clipped to [0, 1]. With ``spread`` below a quarter of the minimum
    center distance the classes are linearly separable in practice.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if (n_classes - 1).bit_length() > dim:
        raise ValueError(
            f"{n_classes} classes do not fit the corners of a {dim}-d grid"
        )
    if not (math.isfinite(spread) and spread >= 0.0):
        raise ValueError(f"spread must be finite and non-negative, got {spread}")
    rng = np.random.default_rng(seed)
    images = np.empty((n_classes * n_per_class, dim))
    labels = np.empty(n_classes * n_per_class, dtype=np.int64)
    for cls, center in enumerate(toy_centers(n_classes, dim)):
        rows = slice(cls * n_per_class, (cls + 1) * n_per_class)
        # Drawn in place; per element the same IEEE operations as
        # center + spread * normal, without block-sized temporaries.
        block = images[rows]
        rng.standard_normal(out=block)
        block *= spread
        block += center
        labels[rows] = cls
    np.clip(images, 0.0, 1.0, out=images)
    return LabeledDataset(images=images, labels=labels)


def toy_centers(n_classes: int, dim: int) -> np.ndarray:
    """The corner centers ``make_toy_dataset`` uses, one row per class."""
    centers = np.full((n_classes, dim), 0.2)
    for cls in range(n_classes):
        for axis in range(dim):
            if (cls >> axis) & 1:
                centers[cls, axis] = 0.8
    return centers
