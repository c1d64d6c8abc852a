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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ClassStats",
    "SamplerConfig",
    "CropIndex",
    "CropAnchor",
    "update_stats",
    "class_distribution",
    "sample_class",
    "pick_crop",
]


@dataclass
class ClassStats:
    """Decayed confusion counts (rows = true class) and the IoU they imply."""

    num_classes: int
    decay: float = 0.99
    confusion: np.ndarray = field(init=False)
    iou_history: list[list[float]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError(f"decay must lie in (0, 1], got {self.decay!r}")
        self.confusion = np.zeros((self.num_classes, self.num_classes))

    @property
    def iou(self) -> np.ndarray:
        """Per-class TP / (TP + FP + FN); classes never seen count as 1."""
        tp = np.diag(self.confusion)
        fp = self.confusion.sum(axis=0) - tp
        fn = self.confusion.sum(axis=1) - tp
        union = tp + fp + fn
        out = np.ones(self.num_classes)
        seen = union > 0
        out[seen] = tp[seen] / union[seen]
        return out

    @property
    def present(self) -> np.ndarray:
        """Classes observed as ground truth at least once (post decay)."""
        return self.confusion.sum(axis=1) > 0


def update_stats(stats: ClassStats, predictions, labels, valid=None) -> ClassStats:
    """Decay the confusion counts, then add this batch's valid pixels.

    Returns the same (mutated) stats object and appends the refreshed IoU
    vector to ``iou_history``.
    """
    predictions = np.asarray(predictions).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if valid is None:
        valid = np.ones(labels.shape, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool).reshape(-1)
        if valid.shape != labels.shape:
            raise ValueError("valid mask must match labels in length")

    pred_v = predictions[valid]
    true_v = labels[valid]
    c = stats.num_classes
    if pred_v.size:
        if pred_v.min() < 0 or pred_v.max() >= c or true_v.min() < 0 or true_v.max() >= c:
            raise ValueError(f"class ids must lie in [0, {c})")

    stats.confusion *= stats.decay
    np.add.at(stats.confusion, (true_v, pred_v), 1.0)
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
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.blend <= 1.0):
            raise ValueError(f"blend must lie in [0, 1], got {self.blend!r}")
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")


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
