"""Complementary crop sampling driven by running per-class IoU.

During training we track a decayed confusion matrix over training
predictions.  When choosing the class a crop should be anchored on, a
configurable blend mixes a uniform draw over the classes seen so far with a
draw biased toward classes the model currently handles badly (weight
``1 - iou + epsilon``).  A separate per-class location index then maps the
chosen class to a concrete (image, row, column) anchor.

Classes never observed as ground truth are treated as having IoU 1, so the
bias never chases classes the data does not contain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Integer confusion matrix ``[true, predicted]`` of two id vectors."""
    flat = labels * num_classes + predictions
    return np.bincount(flat, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )


def confusion_iou(confusion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class TP / (TP + FP + FN) of a confusion matrix (rows = true class).

    Also returns the mask of classes whose union is non-empty; the others
    read 1.
    """
    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    union = tp + fp + fn
    seen = union > 0
    iou = np.ones(confusion.shape[0])
    iou[seen] = tp[seen] / union[seen]
    return iou, seen


def update_stats(stats: ClassStats, predictions, labels) -> ClassStats:
    """Decay the confusion counts, then add this batch's pixels.

    Returns the same (mutated) stats object and appends the refreshed IoU
    vector to ``iou_history``.
    """
    predictions = np.asarray(predictions).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    c = stats.num_classes
    if labels.size and (
        min(predictions.min(), labels.min()) < 0 or max(predictions.max(), labels.max()) >= c
    ):
        raise ValueError(f"class ids must lie in [0, {c})")

    stats.confusion *= DECAY
    stats.confusion += confusion_counts(labels, predictions, c)
    stats.iou = confusion_iou(stats.confusion)[0]
    stats.present = stats.confusion.sum(axis=1) > 0
    stats.iou_history.append(stats.iou.tolist())
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
    present = stats.present
    if not np.any(present):
        present = np.ones(stats.num_classes, dtype=bool)
    uniform = present / np.count_nonzero(present)

    inverse = np.where(present, 1.0 - stats.iou + config.epsilon, 0.0)
    inverse = inverse / inverse.sum()
    return config.blend * uniform + (1.0 - config.blend) * inverse


def sample_class(
    stats: ClassStats, config: SamplerConfig, rng: np.random.Generator
) -> int:
    """Draw one class id from :func:`class_distribution`."""
    return int(rng.choice(stats.num_classes, p=class_distribution(stats, config)))


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
