"""Generative replay: balanced sample synthesis from a trained decoder.

Before each increment, the previous increment's model turns latent prior
draws plus one-hot class codes into synthetic images of every class
learned so far, sized to match the incoming real data, so retraining sees a
balanced mix and old classes survive. The model is the only decoder: replay
keeps no copy of it.

Generation decodes each class's draws straight into its rows of one result
array with one ``ClareModel.decode`` call, which runs them in chunks. The
caller may pass that array: an increment passes the head of its training
array, so replay is never copied.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .dataio import LabeledDataset
from .model import ClareModel, one_hot


def take_snapshot(model: ClareModel, increment: int) -> ClareModel:
    """``model``, no copy; ``increment`` unused. ROADMAP item 1 drops it and perfbench's 2 calls."""
    return model


def balance_counts(
    learned_classes: Iterable[int], new_counts: Mapping[int, int]
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
    model: ClareModel,
    per_class_counts: Mapping[int, int],
    seed: int,
    out: np.ndarray | None = None,
) -> LabeledDataset:
    """Decode prior draws into a ``LabeledDataset`` of synthetic images.

    Each class consumes its own generator stream keyed on ``(seed, class)``,
    so the samples produced for a class do not depend on which other classes
    were requested or on the mapping's iteration order. Classes are
    assembled in sorted order. The whole request, and the shape of ``out``
    when given, is checked before anything is decoded; each class's draws
    are then decoded by ``model.decode`` into its rows of the one result
    array, which is ``out`` (float64, ``(sum of counts, input_dim)``) or a
    new array. Its ``len()`` is the number of rows requested.
    """
    classes = sorted(per_class_counts)
    for cls in classes:
        count = per_class_counts[cls]
        if not 0 <= cls < model.class_no:
            raise ValueError(f"class {cls} outside decoder range [0, {model.class_no})")
        if count < 0:
            raise ValueError(f"count for class {cls} must be >= 0, got {count}")
    counts = [per_class_counts[cls] for cls in classes]
    shape = (sum(counts), model.input_dim)
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
        z = rng.standard_normal((count, model.d_z))
        c = one_hot(np.full(count, cls), model.class_no)
        model.decode(z, c, out=images[row : row + count])
        row += count
    return LabeledDataset(images=images, labels=labels)
