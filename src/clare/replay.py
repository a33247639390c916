"""Generative replay: balanced sample synthesis from a trained decoder.

Before each increment, the previous increment's model turns latent prior
draws plus one-hot class codes into synthetic images of every class
learned so far, sized to match the incoming real data, so retraining sees a
balanced mix and old classes survive. A ``DecoderSnapshot``, a frozen copy
of a model's decoder, replays the same way.

Generation decodes each class's draws straight into its rows of one result
array with one ``decode`` call; the decoder runs them in chunks (see
``model.decoder_forward``). The caller may pass that array: an increment
passes the head of its training array, so replay is never copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import ClareModel, decoder_forward, one_hot


@dataclass
class DecoderSnapshot:
    """Frozen copy of the decoder half of a model.

    Holds deep copies, so later training never leaks into it.
    """

    params: dict[str, np.ndarray]
    class_no: int
    d_z: int
    increment: int

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
    """Synthetic images with their class labels."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def take_snapshot(model: ClareModel, increment: int) -> DecoderSnapshot:
    """Deep-copy the decoder parameters (``dec_*``) of ``model``, in tape order.

    The model's checkpoint holds the same tensors, so a snapshot is
    rebuilt from disk with ``take_snapshot(load_model(path), increment)``.
    """
    return DecoderSnapshot(
        params={
            name: model.tape.param(name).copy()
            for name in model.tape.names()
            if name.startswith("dec_")
        },
        class_no=model.class_no,
        d_z=model.d_z,
        increment=increment,
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
    decoder: ClareModel | DecoderSnapshot,
    per_class_counts: Mapping[int, int],
    seed: int,
    out: np.ndarray | None = None,
) -> ReplayBuffer:
    """Decode prior draws into a labeled buffer of synthetic images.

    ``decoder`` is a model or a snapshot of one; both decode alike. Each
    class consumes its own generator stream keyed on ``(seed, class)``, so
    the samples produced for a class do not depend on which other classes
    were requested or on the mapping's iteration order. Classes are
    assembled in sorted order. The whole request, and the shape of ``out``
    when given, is checked before anything is decoded; each class's draws
    are then decoded into its rows of the one result array, which is
    ``out`` (float64, ``(sum of counts, output_dim)``) or a new array.
    """
    classes = sorted(per_class_counts)
    for cls in classes:
        count = per_class_counts[cls]
        if not 0 <= cls < decoder.class_no:
            raise ValueError(
                f"class {cls} outside decoder range [0, {decoder.class_no})"
            )
        if count < 0:
            raise ValueError(f"count for class {cls} must be >= 0, got {count}")
    counts = [per_class_counts[cls] for cls in classes]
    shape = (sum(counts), decoder.output_dim)
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
        z = rng.standard_normal((count, decoder.d_z))
        c = one_hot(np.full(count, cls), decoder.class_no)
        decoder.decode(z, c, out=images[row : row + count])
        row += count
    return ReplayBuffer(images=images, labels=labels)
