"""Desk-scale training harness for comparing loss reductions.

The task is synthetic semantic segmentation with a deliberately long-tailed
class distribution: each pixel carries a noisy class-indicator feature
vector, images are composed of contiguous class regions, and a per-pixel
linear softmax model is trained on random crops with SGD (momentum plus
polynomial learning-rate decay).  Three reductions of the per-pixel losses
are supported:

* ``uniform`` — the plain mean,
* ``inverse_median_freq`` — static class weights median(freq)/freq,
* ``lmp`` — the pooling solver, weighting pixels by the optimal adaptive
  weights and backpropagating through them.

Everything is deterministic under the config seed, down to bit-exact loss
histories, so paired-seed comparisons between reductions are meaningful.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pixel_losses import SegBatch, backprop_pooled, softmax_xent
from .sampler import ClassStats, CropIndex, SamplerConfig, pick_crop, sample_class, update_stats
from .solver import PoolingConfig, solve_pool

__all__ = [
    "SyntheticDatasetSpec",
    "SyntheticDataset",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergence",
    "check_crop_pooling",
    "class_pixel_counts",
    "generate_dataset",
    "inverse_median_frequency_weights",
    "poly_lr",
    "train",
    "evaluate",
    "save_model",
    "load_model",
]

LOSS_MODES = ("uniform", "inverse_median_freq", "lmp")


class TrainingDivergence(RuntimeError):
    """Raised when the optimisation produces a non-finite loss or weights."""


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
        h, w = self.image_size
        if h < 1 or w < 1:
            raise ValueError(f"bad image size {self.image_size!r}")
        fr = self.class_pixel_fractions
        if len(fr) != self.classes:
            raise ValueError(
                f"{self.classes} classes but {len(fr)} pixel fractions"
            )
        if any(f <= 0 for f in fr):
            raise ValueError("class pixel fractions must be positive")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {sum(fr)!r}")
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be non-negative")
        if self.shape_kind not in ("blob", "stripe"):
            raise ValueError(f"unknown shape_kind {self.shape_kind!r}")

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "image_size": list(self.image_size),
            "images": self.images,
            "class_pixel_fractions": list(self.class_pixel_fractions),
            "feature_noise": self.feature_noise,
            "shape_kind": self.shape_kind,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticDatasetSpec":
        return cls(
            classes=int(data["classes"]),
            image_size=tuple(data["image_size"]),
            images=int(data["images"]),
            class_pixel_fractions=tuple(data["class_pixel_fractions"]),
            feature_noise=float(data["feature_noise"]),
            shape_kind=str(data["shape_kind"]),
            seed=int(data["seed"]),
        )


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
    valid pixels in each crop.  ``sampler = None`` draws crop anchors
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
        if not (self.lr0 > 0):
            raise ValueError(f"lr0 must be positive, got {self.lr0!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not (self.poly_power > 0):
            raise ValueError(f"poly_power must be positive, got {self.poly_power!r}")
        if self.iterations < 1 or self.batch_crops < 1:
            raise ValueError("iterations and batch_crops must be at least 1")
        ch, cw = self.crop_size
        if ch < 1 or cw < 1:
            raise ValueError(f"bad crop size {self.crop_size!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")

    def to_dict(self) -> dict:
        pooling = {
            "p": self.pooling.p,
            "m": self.pooling.m,
            "m_fraction": self.pooling.m_fraction,
        }
        sampler = None
        if self.sampler is not None:
            sampler = {
                "blend": self.sampler.blend,
                "epsilon": self.sampler.epsilon,
                "seed": self.sampler.seed,
            }
        return {
            "loss_mode": self.loss_mode,
            "pooling": pooling,
            "lr0": self.lr0,
            "momentum": self.momentum,
            "poly_power": self.poly_power,
            "iterations": self.iterations,
            "batch_crops": self.batch_crops,
            "crop_size": list(self.crop_size),
            "sampler": sampler,
            "weight_decay": self.weight_decay,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Build a config from a possibly partial dict.

        Missing keys keep the defaults; a pooling dict that sets ``m`` gets
        no ``m_fraction``.
        """
        default = cls()
        pooling = data.get("pooling") or {}
        sampler = data.get("sampler")
        sampler_default = SamplerConfig()
        return cls(
            loss_mode=data.get("loss_mode", default.loss_mode),
            pooling=PoolingConfig(
                p=float(pooling.get("p", default.pooling.p)),
                m=pooling.get("m"),
                m_fraction=(
                    pooling.get("m_fraction", default.pooling.m_fraction)
                    if pooling.get("m") is None
                    else None
                ),
            ),
            lr0=float(data.get("lr0", default.lr0)),
            momentum=float(data.get("momentum", default.momentum)),
            poly_power=float(data.get("poly_power", default.poly_power)),
            iterations=int(data.get("iterations", default.iterations)),
            batch_crops=int(data.get("batch_crops", default.batch_crops)),
            crop_size=tuple(data.get("crop_size", default.crop_size)),
            sampler=None if sampler is None else SamplerConfig(
                blend=float(sampler.get("blend", sampler_default.blend)),
                epsilon=float(sampler.get("epsilon", sampler_default.epsilon)),
                seed=int(sampler.get("seed", sampler_default.seed)),
            ),
            weight_decay=float(data.get("weight_decay", default.weight_decay)),
            seed=int(data.get("seed", default.seed)),
        )


@dataclass
class TrainReport:
    """Final evaluation plus the full loss trace of one run.

    ``loss_history`` records the data term only (no weight-decay penalty),
    one entry per iteration.  ``model_weights`` carries the trained
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

    Per iteration: draw ``batch_crops`` crop anchors (uniform, or via the
    complementary sampler when configured), compute per-pixel softmax
    losses, reduce them according to ``loss_mode``, backpropagate through
    the per-pixel weighting, and take one optimiser step with poly-decayed
    learning rate.  Raises :class:`TrainingDivergence` on non-finite loss
    or parameters.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    num_classes = dataset.num_classes
    num_features = dataset.features.shape[-1]
    h, w = dataset.labels.shape[1], dataset.labels.shape[2]
    ch, cw = config.crop_size
    train_idx = np.asarray(dataset.train_indices)
    if train_idx.size == 0 or np.asarray(dataset.eval_indices).size == 0:
        raise ValueError("dataset must have non-empty train and eval splits")
    if config.loss_mode == "lmp":
        check_crop_pooling((h, w), config.crop_size, config.pooling)

    weights = np.zeros((num_features + 1, num_classes))
    velocity = np.zeros_like(weights)

    class_weights = None
    if config.loss_mode == "inverse_median_freq":
        class_weights = inverse_median_frequency_weights(
            dataset.labels[train_idx], num_classes
        )

    stats = crop_index = None
    if config.sampler is not None:
        stats = ClassStats(num_classes)
        crop_index = CropIndex.from_labels(dataset.labels[train_idx])

    loss_history: list[float] = []
    for iteration in range(config.iterations):
        lr = poly_lr(config.lr0, config.poly_power, iteration, config.iterations)
        grad = np.zeros_like(weights)
        step_loss = 0.0
        for _ in range(config.batch_crops):
            if stats is not None:
                anchor_class = sample_class(stats, config.sampler, rng)
                anchor = pick_crop(crop_index, anchor_class, rng)
                img, row, col = anchor.image, anchor.row, anchor.col
            else:
                img = int(rng.integers(train_idx.size))
                row = int(rng.integers(h))
                col = int(rng.integers(w))
            r0, r1 = _clipped_window(row, ch, h)
            c0, c1 = _clipped_window(col, cw, w)
            image_index = train_idx[img]
            feats = dataset.features[image_index, r0:r1, c0:c1].reshape(-1, num_features)
            labels = dataset.labels[image_index, r0:r1, c0:c1].reshape(-1)
            x = np.concatenate([feats, np.ones((feats.shape[0], 1))], axis=1)
            logits = x @ weights
            result = softmax_xent(SegBatch(logits=logits, labels=labels))
            n_valid = result.losses.size

            if config.loss_mode == "uniform":
                pixel_weights = np.full(n_valid, 1.0 / n_valid)
                crop_loss = float(result.losses.mean())
            elif config.loss_mode == "inverse_median_freq":
                pixel_weights = class_weights[labels[result.valid_index_map]] / n_valid
                crop_loss = float(pixel_weights @ result.losses)
            else:
                outcome = solve_pool(result.losses, config.pooling)
                pixel_weights = outcome.weights
                crop_loss = outcome.pooled_loss

            grad += x.T @ backprop_pooled(result, pixel_weights)
            step_loss += crop_loss
            if stats is not None:
                update_stats(stats, logits.argmax(axis=1), labels)

        grad /= config.batch_crops
        step_loss /= config.batch_crops
        if not math.isfinite(step_loss):
            raise TrainingDivergence(
                f"non-finite loss {step_loss!r} at iteration {iteration}"
            )
        if config.weight_decay:
            grad[:-1] += config.weight_decay * weights[:-1]  # bias row exempt
        with np.errstate(over="ignore", invalid="ignore"):
            velocity = config.momentum * velocity - lr * grad
            weights = weights + velocity
        if not np.all(np.isfinite(weights)):
            raise TrainingDivergence(f"non-finite weights at iteration {iteration}")
        loss_history.append(step_loss)

    per_class_iou, mean_iou = evaluate(weights, dataset, dataset.eval_indices)
    return TrainReport(
        per_class_iou=per_class_iou.tolist(),
        mean_iou=mean_iou,
        loss_history=loss_history,
        config_echo=config.to_dict(),
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
    num_features = dataset.features.shape[-1]
    num_classes = dataset.num_classes
    feats = dataset.features[indices].reshape(-1, num_features)
    labels = dataset.labels[indices].reshape(-1)
    x = np.concatenate([feats, np.ones((feats.shape[0], 1))], axis=1)
    predictions = np.argmax(x @ weights, axis=1)

    confusion = np.zeros((num_classes, num_classes))
    np.add.at(confusion, (labels, predictions), 1.0)
    tp = np.diag(confusion)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - tp
    per_class = np.ones(num_classes)
    covered = union > 0
    per_class[covered] = tp[covered] / union[covered]
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


def load_model(path) -> tuple[np.ndarray, dict]:
    """Read a model written by :func:`save_model`; returns (weights, header)."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode())
    weights = np.frombuffer(raw[newline + 1:], dtype="<f8").reshape(header["shape"])
    return weights.copy(), header
