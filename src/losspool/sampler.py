"""Complementary crop sampling driven by running per-class IoU.

During training we track a decayed confusion matrix over training
predictions.  When choosing the class a crop should be anchored on, a
configurable blend mixes a uniform draw over the classes seen so far with a
draw biased toward classes the model currently handles badly (weight
``1 - iou + epsilon``).  A separate per-class location index then maps the
chosen class to a concrete (image, row, column) anchor.

Classes never observed as ground truth are treated as having IoU 1, so the
bias never chases classes the data does not contain.

The per-crop state is a handful of Python floats, not arrays: every sum in
the IoU, the draw distribution and the class draw adds left to right.  That
order is the sampler's own; below 8 classes it is also numpy's, so there it
gives the bits of array code.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

__all__ = [
    "ClassStats",
    "SamplerConfig",
    "CropIndex",
    "CropAnchor",
    "confusion_counts",
    "confusion_iou",
    "update_stats",
    "class_distribution",
    "sample_class",
    "pick_crop",
]


# Factor on the confusion counts before each batch is added.
DECAY = 0.99


@dataclass
class ClassStats:
    """Decayed confusion counts (rows = true class) and the IoU they imply.

    :func:`update_stats` refreshes ``iou`` (classes never seen count as 1) and
    ``present``, the classes observed as ground truth (post decay).
    """

    num_classes: int
    confusion: list[list[float]] = field(init=False)
    iou: list[float] = field(init=False)
    present: list[bool] = field(init=False)
    iou_history: list[list[float]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        k = self.num_classes
        if k < 2:
            raise ValueError(f"need at least 2 classes, got {k}")
        self.confusion = [[0.0] * k for _ in range(k)]
        self.iou = [1.0] * k
        self.present = [False] * k


def confusion_counts(labels, predictions, num_classes: int) -> np.ndarray:
    """Integer confusion matrix ``[true, predicted]`` of two id vectors.

    An id outside ``[0, num_classes)`` in either vector raises ``ValueError``.
    """
    try:
        flat = np.ravel_multi_index((labels, predictions), (num_classes, num_classes))
    except ValueError:
        raise ValueError(f"class ids must lie in [0, {num_classes})") from None
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )


def _sequential_sum(values):
    """``values[0] + values[1] + ...``, left to right (no compensation)."""
    total = 0
    for value in values:
        total += value
    return total


def confusion_iou(confusion: list[list[float]]) -> tuple[list[float], list[bool]]:
    """Per-class TP / (TP + FP + FN) of a confusion matrix (rows = true class).

    Also returns which classes have a non-empty union; the others read 1.
    Takes the matrix as a list of rows of Python numbers and sums each row
    and each column left to right.
    """
    iou, seen = [], []
    for k, (row, column) in enumerate(zip(confusion, zip(*confusion))):
        tp = row[k]
        union = tp + (_sequential_sum(column) - tp) + (_sequential_sum(row) - tp)
        iou.append(tp / union if union > 0 else 1.0)
        seen.append(union > 0)
    return iou, seen


def update_stats(stats: ClassStats, predictions, labels) -> ClassStats:
    """Decay the confusion counts, then add this batch's pixels.

    Returns the same (mutated) stats object and appends the refreshed IoU
    vector to ``iou_history``.  A batch with an id outside
    ``[0, num_classes)`` raises ``ValueError`` and leaves the stats alone.
    """
    predictions = np.asarray(predictions).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    counts = confusion_counts(labels, predictions, stats.num_classes).tolist()

    stats.confusion = [
        [c * DECAY + n for c, n in zip(row, added)]
        for row, added in zip(stats.confusion, counts)
    ]
    stats.iou = confusion_iou(stats.confusion)[0]
    # The counts are non-negative: a row sums above 0 when any entry does.
    stats.present = [any(row) for row in stats.confusion]
    stats.iou_history.append(stats.iou)
    return stats


@dataclass(frozen=True)
class SamplerConfig:
    """Blend between uniform and inverse-performance class draws.

    ``blend`` is the probability mass of the uniform component; ``epsilon``
    keeps the inverse weight of a perfectly-handled class positive.
    """

    blend: float = 0.5
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        if not (0.0 <= self.blend <= 1.0):
            raise ValueError(f"blend must lie in [0, 1], got {self.blend!r}")
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")


def class_distribution(stats: ClassStats, config: SamplerConfig) -> list[float]:
    """The analytic class-draw distribution the sampler realises.

    blend * uniform + (1 - blend) * normalized(1 - iou + epsilon), both
    components restricted to classes present in the data.  Before anything
    has been observed every class counts as present.
    """
    present = stats.present if any(stats.present) else [True] * stats.num_classes
    share = 1.0 / present.count(True)
    inverse = [
        1.0 - iou + config.epsilon if seen else 0.0 for iou, seen in zip(stats.iou, present)
    ]
    total = _sequential_sum(inverse)
    return [
        config.blend * (share if seen else 0.0) + (1.0 - config.blend) * (weight / total)
        for weight, seen in zip(inverse, present)
    ]


# How far from 1 ``Generator.choice`` lets its probabilities sum.
_SUM_TOLERANCE = math.sqrt(sys.float_info.epsilon)


def sample_class(
    stats: ClassStats, config: SamplerConfig, rng: np.random.Generator
) -> int:
    """Draw one class id from :func:`class_distribution`.

    The draw is ``rng.choice(num_classes, p=...)``'s, on Python floats: one
    ``rng.random()`` against the running sum divided by its last entry; the
    id is the count of entries at or below the draw.  Like ``choice``, a NaN, a
    negative entry or a sum off 1 by more than sqrt(eps) raises ``ValueError``.
    """
    p = class_distribution(stats, config)
    cdf = list(accumulate(p))  # p.cumsum(): sequential
    total = cdf[-1]
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if min(p) < 0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    # The last entry divides to exactly 1, above any draw in [0, 1).
    return bisect_right([c / total for c in cdf], rng.random())


class CropAnchor(NamedTuple):
    """A crop centre; ``fallback`` marks draws where the class was absent."""

    image: int
    row: int
    col: int
    fallback: bool


@dataclass(frozen=True)
class CropIndex:
    """Per-class pixel locations of a labelled image stack.

    ``locations[c]`` is an integer array of shape [k, 3] with rows
    (image, row, col) for every pixel whose ground truth is class ``c``;
    classes with no pixels are absent from the mapping.
    """

    locations: dict[int, np.ndarray]
    num_images: int
    image_shape: tuple[int, int]

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "CropIndex":
        """Index a label stack of shape [images, h, w]."""
        labels = np.asarray(labels)
        if labels.ndim != 3:
            raise ValueError(
                f"labels must be [images, h, w], got shape {labels.shape}"
            )
        locations = {}
        for c in np.unique(labels):
            coords = np.argwhere(labels == c)
            locations[int(c)] = coords
        return cls(
            locations=locations,
            num_images=labels.shape[0],
            image_shape=(labels.shape[1], labels.shape[2]),
        )


def pick_crop(index: CropIndex, class_id: int, rng: np.random.Generator) -> CropAnchor:
    """Anchor a crop on a uniformly drawn pixel of ``class_id``.

    When the class has no pixels anywhere the draw falls back to a uniform
    image and position, flagged in the returned anchor.
    """
    spots = index.locations.get(int(class_id))
    if spots is None or len(spots) == 0:
        h, w = index.image_shape
        return CropAnchor(
            image=int(rng.integers(index.num_images)),
            row=int(rng.integers(h)),
            col=int(rng.integers(w)),
            fallback=True,
        )
    image, row, col = spots[int(rng.integers(len(spots)))].tolist()
    return CropAnchor(image, row, col, False)
