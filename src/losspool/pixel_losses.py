"""Per-pixel classification losses and the gradient chain to logits.

The pooling solver works on a flat vector of per-pixel losses; this module
produces that vector from a batch of logits and labels, and chains the
pooled weighting back to a logit gradient.  Pixels can be masked out
("ignore" pixels): they contribute no loss entry and receive a zero
gradient row, and the pooled weighting is defined over valid pixels only.

The loss is the softmax cross entropy, stabilised by max subtraction.  Its
per-pixel logit gradient is ``softmax(logits) - onehot(label)``, so the
gradient of ``pool(losses)`` with respect to the logits is just that row
scaled by the pixel's pooled weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SegBatch",
    "PixelLossResult",
    "softmax_xent",
    "backprop_pooled",
]


@dataclass
class SegBatch:
    """One flattened crop: logits ``[n, C]``, labels and a validity mask.

    ``valid`` may be omitted, in which case every pixel participates.
    Labels of invalid pixels are unconstrained (they are never read).
    """

    logits: np.ndarray
    labels: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 2:
            raise ValueError(
                f"logits must be [pixels, classes], got shape {self.logits.shape}"
            )
        n, c = self.logits.shape
        if c < 2:
            raise ValueError(f"need at least 2 classes, got {c}")
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("logits must be finite")

        self.labels = np.asarray(self.labels)
        if self.labels.shape != (n,):
            raise ValueError(
                f"labels must have shape ({n},), got {self.labels.shape}"
            )
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {self.labels.dtype}")

        if self.valid is None:
            self.valid = np.ones(n, dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != (n,):
                raise ValueError(
                    f"valid mask must have shape ({n},), got {self.valid.shape}"
                )

        checked = self.labels[self.valid]
        if checked.size and (checked.min() < 0 or checked.max() >= c):
            raise ValueError(
                f"valid labels must lie in [0, {c}), got range "
                f"[{checked.min()}, {checked.max()}]"
            )


@dataclass(frozen=True)
class PixelLossResult:
    """Losses over valid pixels plus everything needed to backpropagate.

    ``losses[k]`` belongs to original pixel ``valid_index_map[k]``.
    ``per_pixel_logit_grad`` has one row per original pixel (zero rows for
    invalid pixels) and holds ``d loss(u) / d logits(u, .)``.
    """

    losses: np.ndarray
    valid_index_map: np.ndarray
    per_pixel_logit_grad: np.ndarray


def softmax_xent(batch: SegBatch) -> PixelLossResult:
    """Softmax cross entropy per valid pixel, with per-logit gradients.

    Uses max subtraction so arbitrarily large logits stay in range.  The
    returned losses are clamped at zero: in exact arithmetic
    ``logsumexp(z) >= z[label]`` always, and the clamp removes the one-ulp
    negatives rounding can produce on saturated pixels.
    """
    if not np.any(batch.valid):
        raise ValueError("batch has no valid pixels")

    index_map = np.flatnonzero(batch.valid)
    z = batch.logits[index_map]
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sum_ez = ez.sum(axis=1)

    labels = np.asarray(batch.labels[index_map], dtype=np.intp)
    rows = np.arange(index_map.size)
    losses = np.maximum(np.log(sum_ez) - z[rows, labels], 0.0)

    grad_valid = ez / sum_ez[:, None]
    grad_valid[rows, labels] -= 1.0
    grad = np.zeros_like(batch.logits)
    grad[index_map] = grad_valid
    return PixelLossResult(
        losses=losses,
        valid_index_map=index_map,
        per_pixel_logit_grad=grad,
    )


def backprop_pooled(result: PixelLossResult, pooled_weights) -> np.ndarray:
    """Chain pooled per-pixel weights back to a logit gradient ``[n, C]``.

    ``pooled_weights`` is indexed like ``result.losses`` (valid pixels in
    compacted order); the returned gradient is indexed like the original
    batch, with zero rows at invalid pixels.
    """
    weights = np.asarray(pooled_weights, dtype=np.float64)
    if weights.shape != result.losses.shape:
        raise ValueError(
            f"pooled_weights has shape {weights.shape}, expected "
            f"{result.losses.shape} (one weight per valid pixel)"
        )
    grad = np.zeros_like(result.per_pixel_logit_grad)
    rows = result.valid_index_map
    grad[rows] = weights[:, None] * result.per_pixel_logit_grad[rows]
    return grad
