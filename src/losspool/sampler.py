"""Complementary crop sampling driven by running per-class IoU.

During training we track a decayed confusion matrix over training
predictions.  When choosing the class a crop should be anchored on, a
configurable blend mixes a uniform draw over the classes seen so far with a
draw biased toward classes the model currently handles badly (weight
``1 - iou + epsilon``).  A separate per-class location index then maps the
chosen class to a concrete (image, row, column) anchor.

Classes never observed as ground truth are treated as having IoU 1, so the
bias never chases classes the data does not contain.

The per-crop state is updated on Python floats, not on arrays of a handful
of numbers: the IoU, the draw distribution and the class draw add in
numpy's reduction order, so they give the bits the array code would.
"""

from __future__ import annotations

import math
import sys
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
    confusion: np.ndarray = field(init=False)
    iou: np.ndarray = field(init=False)
    present: np.ndarray = field(init=False)
    iou_history: list[list[float]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        self.confusion = np.zeros((self.num_classes, self.num_classes))
        self.iou = np.ones(self.num_classes)
        self.present = np.zeros(self.num_classes, dtype=bool)


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


def _numpy_sum(values):
    """The sum ``np.sum`` gives over a contiguous vector, in its order.

    Below 8 terms that is sequential; up to 128, eight interleaved partial
    sums joined pairwise, then the tail; beyond, the two halves apart (the
    first a multiple of 8 long).
    """
    n = len(values)
    if n < 8:
        return _sequential_sum(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
    body = n - n % 8
    lanes = list(values[:8])
    for start in range(8, body, 8):
        for lane in range(8):
            lanes[lane] += values[start + lane]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    for value in values[body:]:
        total += value
    return total


def confusion_iou(confusion) -> tuple[list[float], list[bool]]:
    """Per-class TP / (TP + FP + FN) of a confusion matrix (rows = true class).

    Also returns which classes have a non-empty union; the others read 1.
    Takes the matrix or its ``tolist()`` and works on its Python numbers,
    summing rows like ``sum(axis=1)`` and columns like ``sum(axis=0)``
    (sequentially), so float counts give numpy's bits.
    """
    rows = confusion.tolist() if isinstance(confusion, np.ndarray) else confusion
    iou, seen = [], []
    for k, (row, column) in enumerate(zip(rows, zip(*rows))):
        tp = row[k]
        union = tp + (_sequential_sum(column) - tp) + (_numpy_sum(row) - tp)
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
    counts = confusion_counts(labels, predictions, stats.num_classes)

    stats.confusion *= DECAY
    stats.confusion += counts
    rows = stats.confusion.tolist()
    iou = confusion_iou(rows)[0]
    stats.iou = np.array(iou)
    # The counts are non-negative: a row sums above 0 when any entry does.
    stats.present = np.array([any(row) for row in rows])
    stats.iou_history.append(iou)
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


def class_distribution(stats: ClassStats, config: SamplerConfig) -> np.ndarray:
    """The analytic class-draw distribution the sampler realises.

    blend * uniform + (1 - blend) * normalized(1 - iou + epsilon), both
    components restricted to classes present in the data.  Before anything
    has been observed every class counts as present.
    """
    present = stats.present.tolist()
    if not any(present):
        present = [True] * stats.num_classes
    share = 1.0 / present.count(True)
    inverse = [
        1.0 - iou + config.epsilon if seen else 0.0
        for iou, seen in zip(stats.iou.tolist(), present)
    ]
    total = _numpy_sum(inverse)
    return np.array([
        config.blend * (share if seen else 0.0) + (1.0 - config.blend) * (weight / total)
        for weight, seen in zip(inverse, present)
    ])


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
    p = class_distribution(stats, config).tolist()
    cdf = list(accumulate(p))  # p.cumsum(): sequential
    total = cdf[-1]
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if min(p) < 0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    u = rng.random()
    # The last entry divides to exactly 1, above any u in [0, 1).
    return next(k for k, c in enumerate(cdf) if c / total > u)


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
    image, row, col = spots[int(rng.integers(len(spots)))]
    return CropAnchor(image=int(image), row=int(row), col=int(col), fallback=False)
