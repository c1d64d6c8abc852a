"""Desk-scale training harness for comparing loss reductions.

The task is synthetic semantic segmentation with a deliberately long-tailed
class distribution: each pixel carries a noisy class-indicator feature
vector, images are composed of contiguous class regions, and a per-pixel
linear softmax model is trained on random crops with SGD (momentum plus
polynomial learning-rate decay).  Three reductions of the per-pixel losses
are supported, each as a weight per pixel:

* ``uniform`` — the plain mean, weight 1/n,
* ``inverse_median_freq`` — static class weights median(freq)/freq, over n,
* ``lmp`` — the pooling solver's optimal adaptive weights.

Each iteration draws its crops one by one, then runs one loss, one segmented
solve and one gradient pass over them all.  A crop's loss, like its
gradient, comes from its weights: their dot product with its pixel losses.

Everything is deterministic under the config seed, down to bit-exact loss
histories, so paired-seed comparisons between reductions are meaningful.

``from_dict`` reads a spec or a config, pooling and sampler included, with
one reader that casts each value like the field's default and names the
key path of a value it rejects.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import accumulate
from pathlib import Path

import numpy as np

from .pixel_losses import SegBatch, backprop_pooled, softmax_xent
from .sampler import (
    ClassStats,
    CropIndex,
    SamplerConfig,
    confusion_counts,
    confusion_iou,
    pick_crop,
    sample_class,
    update_stats,
)
from .solver import PoolingConfig, solve_pool

__all__ = [
    "SyntheticDatasetSpec",
    "SyntheticDataset",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergence",
    "as_integer",
    "as_real",
    "check_crop_pooling",
    "class_pixel_counts",
    "generate_dataset",
    "inverse_median_frequency_weights",
    "poly_lr",
    "train",
    "evaluate",
    "save_model",
]

LOSS_MODES = ("uniform", "inverse_median_freq", "lmp")


class TrainingDivergence(RuntimeError):
    """Raised when the optimisation produces non-finite logits, loss or weights."""


def as_integer(value) -> int:
    """``int(value)``, but a fraction or a bool is an error: 2.5 is not 2, true not 1."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def as_real(value) -> float:
    """``float(value)``, but a bool or a NaN is an error: true is not 1.0."""
    if isinstance(value, bool) or math.isnan(real := float(value)):
        raise ValueError("not a number")
    return real


def _converter(example):
    """The cast to a value like ``example``; a tuple takes an array and casts
    each item like its first."""
    if isinstance(example, tuple):
        item = _converter(example[0])

        def cast(value):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"expected an array, got {type(value).__name__}")
            return tuple(map(item, value))

        return cast
    kind = type(example)
    return {int: as_integer, float: as_real}.get(kind, kind)


def _read(default, data, where: str):
    """``default`` with the fields the dict ``data`` sets, each read like its default.

    A tuple casts item by item, an unset ``m`` or ``m_fraction`` as a float,
    and a config field with this reader, over its value or, for an unset
    sampler, over ``SamplerConfig()``.  A ``null`` leaves a config field, or
    a field unset by default, as it is.  A non-dict, an unknown key or a
    value that does not cast raises a ``ValueError`` naming the key path;
    ``__post_init__`` checks the result.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    names = {f.name for f in fields(default)}
    # A pooling dict that sets m clears the default m_fraction.
    changes = {"m_fraction": None} if "m" in names and data.get("m") is not None else {}
    for key, value in data.items():
        if key not in names:
            raise ValueError(f"unknown key {key!r} in {where}")
        example = changes.get(key, getattr(default, key))
        if value is None and (example is None or is_dataclass(example)):
            continue
        if example is None:
            example = SamplerConfig() if key == "sampler" else 0.0
        if is_dataclass(example):
            changes[key] = _read(example, value, f"{where}.{key}")
            continue
        try:
            changes[key] = _converter(example)(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {where}.{key} value {value!r}: {exc}") from None
    return replace(default, **changes)


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Layout and noise level of the synthetic segmentation task.

    ``class_pixel_fractions`` fixes the pixel share of each class in every
    image (realised exactly via largest-remainder rounding).  ``shape_kind``
    selects the spatial layout: ``"stripe"`` stacks the classes in fixed
    horizontal bands, ``"blob"`` places each minority class as a contiguous
    random run inside the majority background.
    """

    classes: int = 3
    image_size: tuple[int, int] = (24, 24)
    images: int = 50
    class_pixel_fractions: tuple[float, ...] = (0.90, 0.09, 0.01)
    feature_noise: float = 0.42
    shape_kind: str = "blob"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        if self.images < 2:
            raise ValueError("need at least 2 images for a train/eval split")
        if len(self.image_size) != 2 or min(self.image_size) < 1:
            raise ValueError(f"image_size must be two sizes of at least 1, got {self.image_size!r}")
        fr = self.class_pixel_fractions
        if len(fr) != self.classes:
            raise ValueError(
                f"{self.classes} classes but {len(fr)} pixel fractions"
            )
        if not all(0 < f < math.inf for f in fr):
            raise ValueError("class pixel fractions must be positive and finite")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(fr)!r}")
        if not (0 <= self.feature_noise < math.inf):
            raise ValueError("feature_noise must be finite and non-negative")
        if self.shape_kind not in ("blob", "stripe"):
            raise ValueError(f"unknown shape_kind {self.shape_kind!r}")
        class_pixel_counts(self)  # rejects a class rounded to 0 pixels

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticDatasetSpec":
        """Build a spec from a possibly partial dict, read by ``_read``: missing
        keys keep the defaults, and a bad key or value raises ``ValueError``."""
        return _read(cls(), data, "dataset")


def class_pixel_counts(spec: SyntheticDatasetSpec) -> np.ndarray:
    """Exact per-image pixel count per class by largest-remainder rounding.

    Rejects specs where rounding starves a class of pixels entirely (the
    class would then never appear in the generated data).
    """
    h, w = spec.image_size
    total = h * w
    shares = np.asarray(spec.class_pixel_fractions) * total
    counts = np.floor(shares).astype(np.int64)
    remainders = shares - counts
    leftover = total - int(counts.sum())
    if leftover:
        top_up = np.argsort(-remainders, kind="stable")[:leftover]
        counts[top_up] += 1
    if np.any(counts == 0):
        starved = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(
            f"class {starved} receives 0 of {total} pixels; increase the "
            "image size or its fraction"
        )
    return counts


def _stripe_layout(counts: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(counts.size), counts)


def _blob_layout(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Contiguous random runs for the minority classes on a majority canvas.

    Each non-majority class occupies one run placed uniformly over the
    remaining free space (or greedily split across fragments when no single
    gap is large enough).
    """
    total = int(counts.sum())
    majority = int(np.argmax(counts))
    flat = np.full(total, majority, dtype=np.int64)
    free: list[tuple[int, int]] = [(0, total)]
    order = sorted(
        (c for c in range(counts.size) if c != majority),
        key=lambda c: (-counts[c], c),
    )
    for cls in order:
        need = int(counts[cls])
        fitting = [(s, e) for s, e in free if e - s >= need]
        if fitting:
            starts = np.array([e - s - need + 1 for s, e in fitting], dtype=np.float64)
            pick = int(rng.choice(len(fitting), p=starts / starts.sum()))
            s, e = fitting[pick]
            begin = s + int(rng.integers(e - s - need + 1))
            flat[begin:begin + need] = cls
            free.remove((s, e))
            if begin > s:
                free.append((s, begin))
            if begin + need < e:
                free.append((begin + need, e))
        else:
            free.sort()
            remaining = need
            next_free = []
            for s, e in free:
                take = min(e - s, remaining)
                if take > 0:
                    flat[s:s + take] = cls
                    remaining -= take
                    if s + take < e:
                        next_free.append((s + take, e))
                else:
                    next_free.append((s, e))
            free = next_free
    return flat


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated images: per-pixel features, labels, and the image split."""

    features: np.ndarray  # [images, h, w, classes] float64
    labels: np.ndarray  # [images, h, w] int64
    train_indices: np.ndarray
    eval_indices: np.ndarray
    spec: SyntheticDatasetSpec

    @property
    def num_classes(self) -> int:
        return self.spec.classes


def generate_dataset(spec: SyntheticDatasetSpec) -> SyntheticDataset:
    """Sample the dataset: exact class shares, noisy indicator features.

    The feature vector of a class-c pixel is the one-hot indicator e_c plus
    isotropic Gaussian noise of scale ``feature_noise``, so the task is
    linearly separable at zero noise and increasingly confusable as the
    noise grows.  Deterministic under ``spec.seed``; the last 20% of images
    (at least one) form the evaluation split.
    """
    rng = np.random.default_rng(spec.seed)
    counts = class_pixel_counts(spec)
    h, w = spec.image_size
    eye = np.eye(spec.classes)

    labels = np.empty((spec.images, h, w), dtype=np.int64)
    features = np.empty((spec.images, h, w, spec.classes))
    for i in range(spec.images):
        if spec.shape_kind == "stripe":
            flat = _stripe_layout(counts)
        else:
            flat = _blob_layout(counts, rng)
        img_labels = flat.reshape(h, w)
        labels[i] = img_labels
        noise = rng.standard_normal((h, w, spec.classes)) * spec.feature_noise
        features[i] = eye[img_labels] + noise

    eval_count = max(1, spec.images // 5)
    split = spec.images - eval_count
    return SyntheticDataset(
        features=features,
        labels=labels,
        train_indices=np.arange(split),
        eval_indices=np.arange(split, spec.images),
        spec=spec,
    )


@dataclass(frozen=True)
class TrainConfig:
    """One training run: reduction mode, optimiser, and crop schedule.

    Defaults follow the usual segmentation recipe: momentum 0.9, poly decay
    with power 0.9, and for the pooled mode p = 1.3 with m = 25% of the
    pixels in each crop.  ``sampler = None`` draws crop anchors
    uniformly; a :class:`SamplerConfig` enables IoU-driven class anchoring.
    """

    loss_mode: str = "uniform"
    pooling: PoolingConfig = PoolingConfig(p=1.3, m_fraction=0.25)
    lr0: float = 0.5
    momentum: float = 0.9
    poly_power: float = 0.9
    iterations: int = 80
    batch_crops: int = 8
    crop_size: tuple[int, int] = (12, 12)
    sampler: SamplerConfig | None = None
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(
                f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}"
            )
        if not (0 < self.lr0 < math.inf):
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not (0 < self.poly_power < math.inf):
            raise ValueError(f"poly_power must be positive and finite, got {self.poly_power!r}")
        if self.iterations < 1 or self.batch_crops < 1:
            raise ValueError("iterations and batch_crops must be at least 1")
        if len(self.crop_size) != 2 or min(self.crop_size) < 1:
            raise ValueError(f"crop_size must be two sizes of at least 1, got {self.crop_size!r}")
        if not (0 <= self.weight_decay < math.inf):
            raise ValueError("weight_decay must be finite and non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Build a config from a possibly partial dict, read by ``_read``.

        Missing keys keep the defaults, here and in the pooling or sampler
        dict; a bad key or value raises ``ValueError``.  A pooling dict that
        sets ``m`` clears the default ``m_fraction``.
        """
        return _read(cls(), data, "train")


@dataclass
class TrainReport:
    """Final evaluation plus the full loss trace of one run.

    ``loss_history`` holds the data term only (no weight-decay penalty) per
    iteration: the crops' mean of pixel weights dot pixel losses, for ``lmp``
    the pooled value up to rounding.  ``model_weights`` carries the trained
    parameters in memory; it is not part of the JSON form (models serialise
    separately via :func:`save_model`).
    """

    per_class_iou: list[float]
    mean_iou: float
    loss_history: list[float]
    config_echo: dict
    wall_time: float
    model_weights: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "per_class_iou": self.per_class_iou,
            "mean_iou": self.mean_iou,
            "loss_history": self.loss_history,
            "config_echo": self.config_echo,
            "wall_time": self.wall_time,
        }


def poly_lr(lr0: float, power: float, iteration: int, total: int) -> float:
    """Polynomial decay: lr0 * (1 - iteration/total) ** power."""
    return lr0 * (1.0 - iteration / total) ** power


def inverse_median_frequency_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Static class weights median(freq) / freq over the given label set.

    Classes absent from the labels get weight 0 (they never contribute a
    pixel, so the value is moot but must not be infinite).
    """
    counts = np.bincount(np.asarray(labels).reshape(-1), minlength=num_classes)
    freq = counts / counts.sum()
    present = counts > 0
    weights = np.zeros(num_classes)
    weights[present] = np.median(freq[present]) / freq[present]
    return weights


def _with_bias(features: np.ndarray) -> np.ndarray:
    """``features`` with the bias input, a constant 1, appended on the last axis."""
    inputs = np.ones((*features.shape[:-1], features.shape[-1] + 1))
    inputs[..., :-1] = features
    return inputs


def _clipped_window(center: int, size: int, limit: int) -> tuple[int, int]:
    start = max(0, center - size // 2)
    return start, min(limit, start + size)


def check_crop_pooling(
    image_size: tuple[int, int], crop_size: tuple[int, int], pooling: PoolingConfig
) -> None:
    """Reject an absolute ``pooling.m`` beyond the smallest crop drawn.

    Crops are clipped at the image border, so an anchor in the last row and
    column keeps only ``crop // 2 + 1`` rows and columns (the whole side when
    the image is shorter).  A fractional ``m`` resolves per crop and
    always fits.
    """
    if pooling.m is None:
        return
    (h, w), (ch, cw) = image_size, crop_size
    r0, r1 = _clipped_window(h - 1, ch, h)
    c0, c1 = _clipped_window(w - 1, cw, w)
    smallest = (r1 - r0) * (c1 - c0)
    if pooling.m > smallest:
        raise ValueError(
            f"pooling m = {pooling.m!r} exceeds the {smallest} pixels of the "
            f"smallest crop ({r1 - r0}x{c1 - c0} at the image corner)"
        )


def train(dataset: SyntheticDataset, config: TrainConfig) -> TrainReport:
    """Momentum SGD over random crops with the configured loss reduction.

    Per iteration: draw ``batch_crops`` crop anchors one by one (uniform,
    or via the complementary sampler, which sees each crop before the next
    draw); then, once for all the crops, compute per-pixel softmax losses,
    reduce each crop's losses according to ``loss_mode``, backpropagate
    through the per-pixel weighting, and take one optimiser step with
    poly-decayed learning rate.  Raises :class:`TrainingDivergence` on
    non-finite logits, loss or parameters.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    num_classes = dataset.num_classes
    h, w = dataset.labels.shape[1], dataset.labels.shape[2]
    ch, cw = config.crop_size
    train_idx = np.asarray(dataset.train_indices)
    if train_idx.size == 0 or np.asarray(dataset.eval_indices).size == 0:
        raise ValueError("dataset must have non-empty train and eval splits")
    if config.loss_mode == "lmp":
        check_crop_pooling((h, w), config.crop_size, config.pooling)

    # The training split, built once: its inputs with the bias feature, its labels.
    inputs = _with_bias(dataset.features[train_idx])
    train_labels = dataset.labels[train_idx]
    weights = np.zeros((inputs.shape[-1], num_classes))
    velocity = np.zeros_like(weights)

    class_weights = None
    if config.loss_mode == "inverse_median_freq":
        class_weights = inverse_median_frequency_weights(train_labels, num_classes)

    stats = crop_index = None
    if config.sampler is not None:
        stats = ClassStats(num_classes)
        crop_index = CropIndex.from_labels(train_labels)
    # The crop window of each anchor row and column.
    row_windows = [slice(*_clipped_window(row, ch, h)) for row in range(h)]
    col_windows = [slice(*_clipped_window(col, cw, w)) for col in range(w)]

    loss_history: list[float] = []
    # Overflow shows as non-finite logits, loss or weights, each checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(config.iterations):
            lr = poly_lr(config.lr0, config.poly_power, iteration, config.iterations)
            crops, logits, labels = [], [], []
            for _ in range(config.batch_crops):
                if stats is not None:
                    anchor_class = sample_class(stats, config.sampler, rng)
                    img, row, col, _ = pick_crop(crop_index, anchor_class, rng)
                else:
                    img, row, col = (int(rng.integers(k)) for k in (train_idx.size, h, w))
                rows, cols = row_windows[row], col_windows[col]
                crops.append(inputs[img, rows, cols].reshape(-1, inputs.shape[-1]))
                logits.append(crops[-1] @ weights)
                labels.append(train_labels[img, rows, cols].reshape(-1))
                if stats is not None:
                    update_stats(stats, logits[-1].argmax(axis=1), labels[-1])

            sizes = [x.shape[0] for x in crops]
            labels, logits = np.concatenate(labels), np.concatenate(logits)
            if not np.isfinite(logits).all():
                raise TrainingDivergence(f"non-finite logits at iteration {iteration}")
            result = softmax_xent(SegBatch(logits=logits, labels=labels))
            if not np.isfinite(result.losses).all():
                raise TrainingDivergence(f"non-finite pixel loss at iteration {iteration}")
            bounds = list(accumulate(sizes, initial=0))
            if config.loss_mode == "lmp":
                pixel_weights = solve_pool(result.losses, config.pooling, sizes=sizes)
            else:
                n = np.repeat(sizes, sizes)
                pixel_weights = 1.0 / n if class_weights is None else class_weights[labels] / n
            pixel_grad = backprop_pooled(result, pixel_weights)
            # Crop by crop: one matmul over all the crops rounds differently.
            grad, step_loss = np.zeros_like(weights), 0.0
            for x, a, b in zip(crops, bounds, bounds[1:]):
                grad += x.T @ pixel_grad[a:b]
                step_loss += float(pixel_weights[a:b] @ result.losses[a:b])

            grad /= config.batch_crops
            step_loss /= config.batch_crops
            if not math.isfinite(step_loss):
                raise TrainingDivergence(
                    f"non-finite loss {step_loss!r} at iteration {iteration}"
                )
            if config.weight_decay:
                grad[:-1] += config.weight_decay * weights[:-1]  # bias row exempt
            velocity = config.momentum * velocity - lr * grad
            weights = weights + velocity
            if not np.isfinite(weights).all():
                raise TrainingDivergence(f"non-finite weights at iteration {iteration}")
            loss_history.append(step_loss)

    per_class_iou, mean_iou = evaluate(weights, dataset, dataset.eval_indices)
    return TrainReport(
        per_class_iou=per_class_iou.tolist(),
        mean_iou=mean_iou,
        loss_history=loss_history,
        # The JSON form: the config's tuples read back as lists.
        config_echo=json.loads(json.dumps(asdict(config))),
        wall_time=time.perf_counter() - started,
        model_weights=weights,
    )


def evaluate(
    weights: np.ndarray, dataset: SyntheticDataset, indices
) -> tuple[np.ndarray, float]:
    """Per-class IoU of argmax predictions over the given image split.

    Classes with an empty union (never labelled, never predicted) are
    reported as 1 and excluded from the mean.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ValueError("cannot evaluate on an empty split")
    x = _with_bias(dataset.features[indices])
    labels = dataset.labels[indices].reshape(-1)
    predictions = np.argmax(x.reshape(-1, x.shape[-1]) @ weights, axis=1)
    counts = confusion_counts(labels, predictions, dataset.num_classes).tolist()
    iou, covered = confusion_iou(counts)
    per_class = np.array(iou)
    return per_class, float(per_class[covered].mean())


def save_model(path, weights: np.ndarray, seed: int, config_echo: dict) -> None:
    """Write weights as a one-line JSON header plus little-endian float64."""
    weights = np.asarray(weights, dtype=np.float64)
    header = {
        "shape": list(weights.shape),
        "seed": seed,
        "config_hash": hashlib.sha256(
            json.dumps(config_echo, sort_keys=True).encode()
        ).hexdigest(),
    }
    with open(Path(path), "wb") as fh:
        fh.write(json.dumps(header).encode())
        fh.write(b"\n")
        fh.write(weights.astype("<f8").tobytes())
