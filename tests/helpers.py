"""Helpers shared by the test modules (not collected as tests)."""

import json
import math
from pathlib import Path

import numpy as np

from losspool import oracle
from losspool.cli import InputDataError, _is_number
from losspool.solver import as_loss_vector


def eta(alpha, losses, q, m):
    """Root function of the pooling threshold, for finite ``q >= 1``.

    For ``J_alpha = {u : l(u) > alpha}`` this returns

        (m - |J_alpha|) * alpha**q - sum_{u not in J_alpha} l(u)**q.

    The solver's ``alpha_star`` is the largest root: ``eta`` is negative below
    it and positive above it (once the prefix condition holds).
    """
    values = np.asarray(losses, dtype=np.float64)
    above = values > alpha
    return float((m - np.count_nonzero(above)) * alpha**q - np.sum(values[~above] ** q))


def project_feasible_bisect(point, params):
    """The joint projection with the multiplier found by halving its bracket.

    The reference for :func:`losspool.oracle.project_feasible`: the same
    candidate map, in units of the radius, and stop width, with bisection
    from ``[0, 1]`` in place of the closed-form start and the Illinois step.
    It calls the oracle's ``_shrink_to_ball_surface`` through the module, so
    a patched counter there sees both loops.
    """
    if not (1.0 < params.p < math.inf):
        raise ValueError(f"projection needs finite p > 1, got {params.p!r}")
    u = np.maximum(np.asarray(point, dtype=np.float64), 0.0) / params.gamma

    def candidate(nu):
        shrunk = oracle._shrink_to_ball_surface(u, nu, params.p)
        return np.minimum(params.gamma * shrunk, params.tau)

    w0 = candidate(0.0)
    if oracle.stable_qnorm(w0, params.p) <= params.gamma:
        return w0

    def excess(nu):
        return oracle.stable_qnorm(candidate(nu), params.p) - params.gamma

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        hi *= 4.0
    while hi - lo > oracle._BALL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return candidate(0.5 * (lo + hi))


# Alternating projections stop once a full cycle moves the iterate no more
# than this (sup norm), or after this many cycles.
DYKSTRA_MOVEMENT_TOL = 1.0e-10
DYKSTRA_MAX_CYCLES = 4000


def project_feasible_dykstra(point, params):
    """Reference joint projection by Dykstra alternating projections.

    A check on :func:`losspool.oracle.project_feasible`: it alternates the
    box ``[0, tau]^n`` with the p-norm ball, and the ball step is the joint
    projection with the cap lifted (``tau = inf``).  That step only ever
    sees non-negative points, the box output plus a correction that the
    ball projection leaves non-negative, so lifting the cap is exact there.
    Converges for any input but burns down its corrections only linearly
    when the point is far outside the sets; the loop stops once a full
    cycle neither moves the iterate nor leaves a gap between the box view
    and the ball view (both at most ``DYKSTRA_MOVEMENT_TOL``).
    """
    x = np.asarray(point, dtype=np.float64)
    ball = params._replace(tau=math.inf)
    box_corr = np.zeros_like(x)
    ball_corr = np.zeros_like(x)
    prev = None
    for _ in range(DYKSTRA_MAX_CYCLES):
        shifted = x + box_corr
        y = np.clip(shifted, 0.0, params.tau)
        box_corr = shifted - y
        shifted = y + ball_corr
        x = oracle.project_feasible(shifted, ball)
        ball_corr = shifted - x
        gap = float(np.max(np.abs(y - x)))
        if (
            prev is not None
            and gap <= DYKSTRA_MOVEMENT_TOL
            and float(np.max(np.abs(x - prev))) <= DYKSTRA_MOVEMENT_TOL
        ):
            break
        prev = x
    return x


def dual_objective(lam, losses, config):
    """Dual bound ``tau * sum(lam) + gamma * ||l - lam||_q``, for ``p > 1``.

    Finite for any ``lam >= 0``; minimised (over the non-negative orthant)
    by ``max(l - alpha_star, 0)``, where it meets the pooled value.
    """
    values = np.asarray(losses, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    params = config.resolve(values.size)
    return params.tau * float(lam.sum()) + params.gamma * oracle.stable_qnorm(
        values - lam, params.q
    )


def dual_path_value(alpha, values, params):
    """The dual objective at ``lam = max(l - alpha, 0)``, one threshold at a time.

    The scalar reference for :func:`losspool.oracle._dual_path`.
    """
    lam_sum = float(np.maximum(values - alpha, 0.0).sum())
    return params.tau * lam_sum + params.gamma * oracle.stable_qnorm(
        np.minimum(values, alpha), params.q
    )


def softmax_xent_row_major(logits, labels):
    """Softmax cross entropy with numpy's per-pixel max and sum over each row.

    The reference for :func:`losspool.pixel_losses.softmax_xent`, which
    works class-major.  Returns ``(losses, per_pixel_logit_grad)``.
    """
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sum_ez = ez.sum(axis=1)
    rows = np.arange(labels.size)
    losses = np.maximum(np.log(sum_ez) - z[rows, labels], 0.0)
    grad = ez / sum_ez[:, None]
    grad[rows, labels] -= 1.0
    return losses, grad


def confusion_iou_numpy(confusion):
    """The IoU of a confusion matrix on numpy arrays: the reference for
    :func:`losspool.sampler.confusion_iou`, which adds rows and columns left
    to right, numpy's order below 8 classes."""
    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    union = tp + fp + fn
    seen = union > 0
    iou = np.ones(confusion.shape[0])
    iou[seen] = tp[seen] / union[seen]
    return iou, seen


def class_distribution_numpy(stats, config):
    """The class-draw distribution on numpy arrays: the reference for
    :func:`losspool.sampler.class_distribution`."""
    present = np.array(stats.present)
    if not np.any(present):
        present = np.ones(stats.num_classes, dtype=bool)
    uniform = present / np.count_nonzero(present)

    inverse = np.where(present, 1.0 - np.array(stats.iou) + config.epsilon, 0.0)
    inverse = inverse / inverse.sum()
    return config.blend * uniform + (1.0 - config.blend) * inverse


def train_per_crop(dataset, config):
    """The trainer's step with one loss, solve and gradient call per crop.

    The reference for :func:`losspool.trainer.train`, which batches each
    iteration's crops: the same draws, reductions and optimiser step, one
    crop at a time, with the sampler's class drawn by ``rng.choice``.
    Returns ``(loss_history, weights)``.
    """
    from losspool import sampler as sampler_module
    from losspool import trainer
    from losspool.pixel_losses import SegBatch, backprop_pooled, softmax_xent
    from losspool.solver import solve_pool

    rng = np.random.default_rng(config.seed)
    num_classes = dataset.num_classes
    num_features = dataset.features.shape[-1]
    h, w = dataset.labels.shape[1], dataset.labels.shape[2]
    ch, cw = config.crop_size
    train_idx = np.asarray(dataset.train_indices)
    weights = np.zeros((num_features + 1, num_classes))
    velocity = np.zeros_like(weights)
    class_weights = None
    if config.loss_mode == "inverse_median_freq":
        class_weights = trainer.inverse_median_frequency_weights(
            dataset.labels[train_idx], num_classes
        )
    stats = crop_index = None
    if config.sampler is not None:
        stats = sampler_module.ClassStats(num_classes)
        crop_index = sampler_module.CropIndex.from_labels(dataset.labels[train_idx])

    loss_history = []
    for iteration in range(config.iterations):
        lr = trainer.poly_lr(config.lr0, config.poly_power, iteration, config.iterations)
        grad = np.zeros_like(weights)
        step_loss = 0.0
        for _ in range(config.batch_crops):
            if stats is not None:
                p = sampler_module.class_distribution(stats, config.sampler)
                anchor_class = int(rng.choice(num_classes, p=p))
                anchor = sampler_module.pick_crop(crop_index, anchor_class, rng)
                img, row, col = anchor.image, anchor.row, anchor.col
            else:
                img = int(rng.integers(train_idx.size))
                row = int(rng.integers(h))
                col = int(rng.integers(w))
            r0, r1 = trainer._clipped_window(row, ch, h)
            c0, c1 = trainer._clipped_window(col, cw, w)
            image_index = train_idx[img]
            feats = dataset.features[image_index, r0:r1, c0:c1].reshape(-1, num_features)
            labels = dataset.labels[image_index, r0:r1, c0:c1].reshape(-1)
            x = np.concatenate([feats, np.ones((feats.shape[0], 1))], axis=1)
            logits = x @ weights
            result = softmax_xent(SegBatch(logits=logits, labels=labels))
            n = labels.size
            if config.loss_mode == "uniform":
                pixel_weights = np.full(n, 1.0 / n)
            elif config.loss_mode == "inverse_median_freq":
                pixel_weights = class_weights[labels] / n
            else:
                pixel_weights = solve_pool(result.losses, config.pooling).weights
            grad += x.T @ backprop_pooled(result, pixel_weights)
            step_loss += float(pixel_weights @ result.losses)
            if stats is not None:
                sampler_module.update_stats(stats, logits.argmax(axis=1), labels)
        grad /= config.batch_crops
        step_loss /= config.batch_crops
        if config.weight_decay:
            grad[:-1] += config.weight_decay * weights[:-1]
        velocity = config.momentum * velocity - lr * grad
        weights = weights + velocity
        loss_history.append(step_loss)
    return loss_history, weights


def read_losses_whole(path):
    """:func:`losspool.cli.read_losses` on the whole text at once.

    The reference for the piecewise parser: one ``json.loads`` of the
    stripped text, or one ``splitlines`` and one numpy conversion of every
    non-blank line, with the same values and messages.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputDataError(f"cannot read losses file {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise InputDataError(f"losses file {path} is empty")
    if stripped.startswith("["):
        try:
            values = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"losses file {path}: invalid JSON: {exc}") from exc
        if not isinstance(values, list):
            raise InputDataError(f"losses file {path}: expected a JSON array")
        for index, value in enumerate(values):
            if type(value) not in (int, float):
                raise InputDataError(
                    f"losses file {path}: element {index} is not a number: "
                    f"{json.dumps(value)}"
                )
    else:
        lines = text.splitlines()
        body = list(filter(str.strip, lines))
        if not _is_number(body[0]):
            del body[0]
        try:
            values = np.array(body, dtype=np.float64)
        except ValueError:
            filled = [(n, line.strip()) for n, line in enumerate(lines, start=1) if line.strip()]
            lineno, line = next((n, line) for n, line in filled[1:] if not _is_number(line))
            raise InputDataError(
                f"losses file {path}, line {lineno}: not a number: {line!r}"
            ) from None
    try:
        return as_loss_vector(values)
    except (ValueError, OverflowError) as exc:
        raise InputDataError(f"losses file {path}: {exc}") from exc
