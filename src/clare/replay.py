"""Generative replay: frozen decoder snapshots and balanced sample synthesis.

After each increment the decoder is snapshotted. Before the next one, the
snapshot turns latent prior draws plus one-hot class codes into synthetic
images of every class learned so far, sized to match the incoming real
data, so retraining sees a balanced mix and old classes survive.

Generation decodes each class's draws straight into its rows of one result
array with one ``decode`` call; the decoder runs them in chunks (see
``model.decoder_forward``). The caller may pass that array: an increment
passes the head of its training array, so replay is never copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import model as model_mod
from .model import ClareModel, decoder_forward, one_hot

_DECODER_PARAMS = ("dec_w1", "dec_b1", "dec_w2", "dec_b2", "dec_w3", "dec_b3")


@dataclass
class DecoderSnapshot:
    """Frozen copy of the decoder half of a model.

    Holds deep copies, so later training never leaks into it. ``trained``
    records whether the source model had been fit when the snapshot was
    taken; an untrained snapshot is legal but worth flagging.
    """

    params: dict[str, np.ndarray]
    class_no: int
    d_z: int
    increment: int
    trained: bool = True

    @property
    def output_dim(self) -> int:
        return self.params["dec_w3"].shape[0]

    def decode(self, z: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pixel probabilities for latent rows ``z`` under one-hot codes ``c``.

        ``out`` is an optional destination for the result, as in
        ``decoder_forward``, which also checks the widths of ``z`` and ``c``
        against ``d_z`` and ``class_no``.
        """
        return decoder_forward(self.params.__getitem__, self.d_z, z, c, out)


@dataclass
class ReplayBuffer:
    """Synthetic images with their class labels and where they came from."""

    images: np.ndarray
    labels: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.labels.shape[0]


def take_snapshot(model: ClareModel, increment: int, trained: bool = True) -> DecoderSnapshot:
    """Deep-copy the decoder parameters of ``model``."""
    return DecoderSnapshot(
        params={name: model.tape.param(name).copy() for name in _DECODER_PARAMS},
        class_no=model.class_no,
        d_z=model.d_z,
        increment=increment,
        trained=trained,
    )


def balance_counts(
    learned_classes: list[int], new_counts: Mapping[int, int]
) -> dict[int, int]:
    """Per-old-class replay counts: the median of the new-class counts.

    Every previously learned class gets the same share, so no old class is
    drowned out by a large incoming group or starved by a small one. The
    median is rounded half-up to an int.
    """
    if not new_counts:
        raise ValueError("new_counts must name at least one incoming class")
    for cls, count in new_counts.items():
        if count <= 0:
            raise ValueError(f"count for class {cls} must be positive, got {count}")
    share = int(math.floor(float(np.median(list(new_counts.values()))) + 0.5))
    return {cls: share for cls in learned_classes}


def generate_replay(
    snapshot: DecoderSnapshot,
    per_class_counts: Mapping[int, int],
    seed: int,
    out: np.ndarray | None = None,
) -> ReplayBuffer:
    """Decode prior draws into a labeled buffer of synthetic images.

    Each class consumes its own generator stream keyed on ``(seed, class)``,
    so the samples produced for a class do not depend on which other classes
    were requested or on the mapping's iteration order. Classes are
    assembled in sorted order. The whole request, and the shape of ``out``
    when given, is checked before anything is decoded; each class's draws
    are then decoded into its rows of the one result array, which is
    ``out`` (float64, ``(sum of counts, output_dim)``) or a new array.
    """
    classes = sorted(per_class_counts)
    for cls in classes:
        count = per_class_counts[cls]
        if not 0 <= cls < snapshot.class_no:
            raise ValueError(
                f"class {cls} outside snapshot range [0, {snapshot.class_no})"
            )
        if count < 0:
            raise ValueError(f"count for class {cls} must be >= 0, got {count}")
    counts = [per_class_counts[cls] for cls in classes]
    shape = (sum(counts), snapshot.output_dim)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(
            f"replay output must be float64 of shape {shape}, "
            f"got {out.dtype} of shape {out.shape}"
        )
    images = np.empty(shape) if out is None else out
    labels = np.repeat(np.array(classes, dtype=np.int64), counts)
    row = 0
    for cls, count in zip(classes, counts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, cls]))
        z = rng.standard_normal((count, snapshot.d_z))
        c = one_hot(np.full(count, cls), snapshot.class_no)
        snapshot.decode(z, c, out=images[row : row + count])
        row += count
    return ReplayBuffer(
        images=images,
        labels=labels,
        provenance={"increment": snapshot.increment, "seed": seed,
                    "trained": snapshot.trained},
    )


def save_snapshot(snapshot: DecoderSnapshot, path: str) -> None:
    """Persist decoder tensors in the model checkpoint container."""
    model_mod.write_container(path, snapshot.class_no, snapshot.d_z, snapshot.params)


def load_snapshot(path: str, increment: int = -1, trained: bool = True) -> DecoderSnapshot:
    """Read decoder tensors back; provenance is runtime metadata, not stored.

    Each tensor's shape is checked against the header's ``class_no`` and
    ``d_z`` and against its neighbouring layers; a mismatch raises
    ``ValueError`` naming the tensor and both shapes.
    """
    class_no, d_z, params = model_mod.read_container(path)
    for name in _DECODER_PARAMS:
        if name not in params:
            raise ValueError(f"snapshot file is missing tensor {name!r}")
    # Layer 1 reads [z, one-hot]; each later layer reads the one before it.
    width, source = d_z + class_no, f"d_z {d_z} + class_no {class_no}"
    for w_name, b_name in zip(_DECODER_PARAMS[::2], _DECODER_PARAMS[1::2]):
        w, b = params[w_name], params[b_name]
        rows = w.shape[0] if w.ndim else 0
        if w.shape != (rows, width):
            raise ValueError(
                f"snapshot tensor {w_name!r} has shape {w.shape}, "
                f"expected {(rows, width)} from {source}"
            )
        if b.shape != (rows,):
            raise ValueError(
                f"snapshot tensor {b_name!r} has shape {b.shape}, "
                f"expected {(rows,)} from the rows of {w_name!r}"
            )
        width, source = rows, f"the rows of {w_name!r}"
    return DecoderSnapshot(
        params={name: params[name] for name in _DECODER_PARAMS},
        class_no=class_no,
        d_z=d_z,
        increment=increment,
        trained=trained,
    )
