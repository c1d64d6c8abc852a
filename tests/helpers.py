"""Helpers shared by the test modules (not collected as tests)."""

import math

import numpy as np

from losspool import oracle


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


def project_feasible_bisect(point, params, state=None):
    """The joint projection with the multiplier found by halving its bracket.

    The reference for :func:`losspool.oracle.project_feasible`: the same
    candidate map and stop width, with bisection in place of the Illinois
    step.  It calls the oracle's ``_shrink_to_ball_surface`` through the
    module, so a patched counter there sees both loops.
    """
    if not (1.0 < params.p < math.inf):
        raise ValueError(f"projection needs finite p > 1, got {params.p!r}")
    v = np.maximum(np.asarray(point, dtype=np.float64), 0.0)

    def candidate(nu):
        return np.minimum(oracle._shrink_to_ball_surface(v, nu, params.p), params.tau)

    w0 = candidate(0.0)
    if oracle.stable_qnorm(w0, params.p) <= params.gamma:
        return w0

    def excess(nu):
        return oracle.stable_qnorm(candidate(nu), params.p) - params.gamma

    lo, hi = 0.0, 1.0
    if state is not None and state.get("nu", 0.0) > 0.0:
        hint = state["nu"]
        lo, hi = hint / 4.0, hint * 4.0
        if excess(lo) < 0.0:
            lo = 0.0
        while excess(hi) > 0.0:
            hi *= 4.0
    else:
        while excess(hi) > 0.0:
            hi *= 4.0
    while hi - lo > oracle._BALL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    if state is not None:
        state["nu"] = nu
    return candidate(nu)


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
                crop_loss = float(result.losses.mean())
            elif config.loss_mode == "inverse_median_freq":
                pixel_weights = class_weights[labels] / n
                crop_loss = float(pixel_weights @ result.losses)
            else:
                outcome = solve_pool(result.losses, config.pooling)
                pixel_weights = outcome.weights
                crop_loss = outcome.pooled_loss
            grad += x.T @ backprop_pooled(result, pixel_weights)
            step_loss += crop_loss
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
