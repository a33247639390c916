"""Accuracy bookkeeping for incremental runs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import ClareModel


def evaluate(
    model: ClareModel, images: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[int, float]]:
    """Overall and per-class accuracy in percent.

    Predictions take the argmax of the class probabilities from one
    ``classify`` call over every image (the model runs it in chunks); on a
    tie the lowest class index wins (numpy's argmax convention). A
    non-finite class score raises ``NonFiniteError`` (``classify``).
    ``labels`` must use the model's dense class ids.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot evaluate on an empty test set")
    if len(images) != labels.shape[0]:
        raise ValueError(
            f"images and labels differ in length: {len(images)} images, "
            f"{labels.shape[0]} labels"
        )
    lo, hi = int(labels.min()), int(labels.max())
    if lo < 0 or hi >= model.class_no:
        raise ValueError(
            f"labels must be dense ids 0..{model.class_no - 1} of the model's "
            f"{model.class_no} classes, got labels in {lo}..{hi}"
        )
    preds = model.classify(images).argmax(axis=1)
    overall = 100.0 * float(np.mean(preds == labels))
    per_class = {}
    for cls in np.unique(labels):
        mask = labels == cls
        per_class[int(cls)] = 100.0 * float(np.mean(preds[mask] == labels[mask]))
    return overall, per_class


def average_over_tasks(records: Sequence, k: int) -> float:
    """Mean of the first ``k`` overall accuracies.

    Accepts metric records (anything with an ``overall`` attribute) or bare
    accuracy values, so published accuracy rows can be checked directly.
    """
    if k < 1 or k > len(records):
        raise ValueError(f"k must be in [1, {len(records)}], got {k}")
    values = [float(getattr(r, "overall", r)) for r in records[:k]]
    return float(np.mean(values))
