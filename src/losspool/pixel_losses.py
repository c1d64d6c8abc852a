"""Per-pixel classification losses and the gradient chain to logits.

The pooling solver works on a flat vector of per-pixel losses; this module
produces that vector from a batch of logits and labels, and chains the
pooled weighting back to a logit gradient.

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
    """One flattened crop: logits ``[n, C]`` and integer labels ``[n]``."""

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 2:
            raise ValueError(
                f"logits must be [pixels, classes], got shape {self.logits.shape}"
            )
        n, c = self.logits.shape
        if n < 1:
            raise ValueError("batch has no pixels")
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
        if self.labels.min() < 0 or self.labels.max() >= c:
            raise ValueError(
                f"labels must lie in [0, {c}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )


@dataclass(frozen=True)
class PixelLossResult:
    """Per-pixel losses plus everything needed to backpropagate.

    ``per_pixel_logit_grad`` has one row per pixel and holds
    ``d loss(u) / d logits(u, .)``.
    """

    losses: np.ndarray
    per_pixel_logit_grad: np.ndarray


def softmax_xent(batch: SegBatch) -> PixelLossResult:
    """Softmax cross entropy per pixel, with per-logit gradients.

    Uses max subtraction so arbitrarily large logits stay in range.  The
    returned losses are clamped at zero: in exact arithmetic
    ``logsumexp(z) >= z[label]`` always, and the clamp removes the one-ulp
    negatives rounding can produce on saturated pixels.

    Class-major: the max and the sum over the classes are elementwise passes
    over the rows of ``logits.T``, and the label entries sit at the flat
    indices ``label * n + pixel``.  Below 8 classes that gives the bits of
    numpy's per-row ``max`` and ``sum``; from 8 on, where numpy's row sum is
    pairwise, the losses move by at most 8 eps of ``max(1, loss)`` and the
    gradients, returned C-contiguous, by at most 2e-15.
    """
    logits = batch.logits.T.copy()
    n = logits.shape[1]
    top = logits[0].copy()
    for row in logits[1:]:
        np.maximum(top, row, out=top)
    z = np.subtract(logits, top, out=logits)
    ez = np.exp(z)
    sum_ez = ez[0].copy()
    for row in ez[1:]:
        sum_ez += row

    at_label = np.asarray(batch.labels, dtype=np.intp) * n + np.arange(n)
    losses = np.maximum(np.log(sum_ez) - z.ravel()[at_label], 0.0)

    ez /= sum_ez
    ez.ravel()[at_label] -= 1.0
    return PixelLossResult(losses=losses, per_pixel_logit_grad=ez.T.copy())


def backprop_pooled(result: PixelLossResult, pooled_weights) -> np.ndarray:
    """Chain pooled per-pixel weights back to a logit gradient ``[n, C]``.

    ``pooled_weights`` is indexed like ``result.losses``.
    """
    weights = np.asarray(pooled_weights, dtype=np.float64)
    if weights.shape != result.losses.shape:
        raise ValueError(
            f"pooled_weights has shape {weights.shape}, expected "
            f"{result.losses.shape} (one weight per pixel)"
        )
    return weights[:, None] * result.per_pixel_logit_grad
