"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts, or add ``-s`` to see the printed summary lines with their
measured worst cases.  Thresholds are stated inline next to each check.
"""

import time

import numpy as np
import pytest

from helpers import dual_objective, eta
from losspool.cli import main
from losspool.oracle import kkt_residual, random_instance, rel_err, run_audit
from losspool.pixel_losses import SegBatch, backprop_pooled, softmax_xent
from losspool.sampler import (
    ClassStats,
    SamplerConfig,
    class_distribution,
    sample_class,
    update_stats,
)
from losspool.solver import PoolingConfig, solve_pool
from losspool.trainer import SyntheticDatasetSpec, TrainConfig, generate_dataset, train


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def criterion_one_instances():
    """The exact instance stream of the 500-case audit (seed 0)."""
    rng = np.random.default_rng(0)
    return [random_instance(rng) for _ in range(500)]


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    summary = run_audit(instances=500, seed=0, rel_tol=1e-4)
    elapsed = time.perf_counter() - started
    worst = max(summary.worst["ascent_rel_err"], summary.worst["scan_rel_err"])
    report(
        1,
        "oracle equivalence",
        summary.all_passed and worst <= 1e-4 and elapsed < 60.0,
        f"500 instances, worst rel err {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_exact_special_cases():
    rng = np.random.default_rng(2)
    worst_mean = worst_top = 0.0
    max_exact = True
    for _ in range(100):
        n = int(rng.integers(2, 40))
        losses = rng.uniform(0.01, 3.0, size=n)

        # m = n: the pooled value is the plain mean
        p = float(rng.choice([1.0, 1.3, 2.0, 4.0]))
        out = solve_pool(losses, PoolingConfig(p=p, m=float(n)))
        worst_mean = max(worst_mean, abs(out.pooled_loss - losses.mean()))

        # p = 1, m = 1: the pooled value is the exact max
        out = solve_pool(losses, PoolingConfig(p=1.0, m=1.0))
        max_exact = max_exact and out.pooled_loss == losses.max()

        # p = 1, integer m: mean of the top-m losses
        m = int(rng.integers(1, n + 1))
        out = solve_pool(losses, PoolingConfig(p=1.0, m=float(m)))
        top_mean = np.sort(losses)[-m:].mean()
        worst_top = max(worst_top, abs(out.pooled_loss - top_mean) / top_mean)
    report(
        2,
        "exact special cases",
        worst_mean <= 1e-12 and max_exact and worst_top <= 1e-12,
        f"100 instances each; |pooled-mean| {worst_mean:.2e}, max exact: "
        f"{max_exact}, top-m rel {worst_top:.2e}",
    )


def test_criterion_3_upper_bound():
    violations = 0
    checked = 0
    for losses, config in criterion_one_instances():
        if solve_pool(losses, config).pooled_loss < losses.mean():
            violations += 1
        checked += 1
    rng = np.random.default_rng(2)  # the criterion-2 stream again
    for _ in range(100):
        n = int(rng.integers(2, 40))
        losses = rng.uniform(0.01, 3.0, size=n)
        for config in (
            PoolingConfig(p=float(rng.choice([1.0, 1.3, 2.0, 4.0])), m=float(n)),
            PoolingConfig(p=1.0, m=1.0),
            PoolingConfig(p=1.0, m=float(int(rng.integers(1, n + 1)))),
        ):
            if solve_pool(losses, config).pooled_loss < losses.mean():
                violations += 1
            checked += 1
    report(
        3,
        "upper bound on the mean",
        violations == 0,
        f"{violations} violations over {checked} instances",
    )


def test_criterion_4_kkt_and_duality():
    worst_gap = worst_fix = worst_eta = 0.0
    support_ok = True
    checked = 0
    for losses, config in criterion_one_instances():
        outcome = solve_pool(losses, config)
        params = config.resolve(losses.size)
        scale = float(losses.max())
        if scale == 0.0:
            continue
        checked += 1

        bound = dual_objective(outcome.dual, losses, config)
        worst_gap = max(worst_gap, rel_err(bound, outcome.pooled_loss))

        worst_fix = max(
            worst_fix, kkt_residual(outcome.dual / scale, losses / scale, config)
        )

        if outcome.alpha_star > 0.0:
            residual = abs(
                eta(outcome.alpha_star / scale, losses / scale, params.q, params.m)
            )
            worst_eta = max(worst_eta, residual)

        support_ok = support_ok and outcome.support.size < params.m
    report(
        4,
        "KKT and duality",
        worst_gap <= 1e-6
        and worst_fix <= 1e-6
        and worst_eta <= 1e-7
        and support_ok,
        f"{checked} p>1 instances; dual gap {worst_gap:.2e}, fixed point "
        f"{worst_fix:.2e}, eta {worst_eta:.2e}, |J*|<m: {support_ok}",
    )


def tie_free_losses(rng, n, alpha_margin, config):
    """Losses with well-separated values, away from the pooling threshold."""
    while True:
        losses = rng.uniform(0.5, 4.0, size=n)
        if np.min(np.diff(np.sort(losses))) < 1e-3:
            continue
        alpha = solve_pool(losses, config).alpha_star
        if np.min(np.abs(losses - alpha)) > alpha_margin:
            return losses


def test_criterion_5_gradients():
    rng = np.random.default_rng(5)
    worst_loss_grad = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 25))
        config = PoolingConfig(
            p=float(rng.choice([1.1, 1.3, 1.7, 2.0, 4.0])),
            m=float(rng.uniform(1.0, n)),
        )
        losses = tie_free_losses(rng, n, alpha_margin=1e-4, config=config)
        analytic = solve_pool(losses, config).weights
        h = 1e-6
        fd = np.empty(n)
        for u in range(n):
            up, down = losses.copy(), losses.copy()
            up[u] += h
            down[u] -= h
            fd[u] = (
                solve_pool(up, config).pooled_loss
                - solve_pool(down, config).pooled_loss
            ) / (2 * h)
        err = np.abs(fd - analytic).max() / np.abs(analytic).max()
        worst_loss_grad = max(worst_loss_grad, err)

    worst_logit_grad = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        classes = int(rng.integers(2, 5))
        config = PoolingConfig(
            p=float(rng.choice([1.3, 1.7, 2.0])), m=float(rng.uniform(1.0, n))
        )
        while True:
            logits = rng.normal(0.0, 1.5, size=(n, classes))
            labels = rng.integers(0, classes, size=n)
            result = softmax_xent(SegBatch(logits=logits, labels=labels))
            outcome = solve_pool(result.losses, config)
            if np.min(np.abs(result.losses - outcome.alpha_star)) > 1e-3:
                break
        analytic = backprop_pooled(result, outcome.weights)

        h = 1e-5
        fd = np.empty_like(logits)
        for u in range(n):
            for c in range(classes):
                up, down = logits.copy(), logits.copy()
                up[u, c] += h
                down[u, c] -= h
                fd[u, c] = (
                    solve_pool(
                        softmax_xent(SegBatch(logits=up, labels=labels)).losses,
                        config,
                    ).pooled_loss
                    - solve_pool(
                        softmax_xent(SegBatch(logits=down, labels=labels)).losses,
                        config,
                    ).pooled_loss
                ) / (2 * h)
        err = np.abs(fd - analytic).max() / max(np.abs(analytic).max(), 1e-12)
        worst_logit_grad = max(worst_logit_grad, err)

    report(
        5,
        "analytic gradients vs finite differences",
        worst_loss_grad <= 1e-4 and worst_logit_grad <= 1e-4,
        f"200+200 instances; losses {worst_loss_grad:.2e}, "
        f"logits {worst_logit_grad:.2e}",
    )


def test_criterion_6_homogeneity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 40))
        losses = rng.lognormal(0.0, 1.0, size=n)
        config = PoolingConfig(
            p=float(rng.choice([1.05, 1.1, 1.3, 1.7, 2.0, 4.0])),
            m=float(rng.uniform(1.0, n)),
        )
        base = solve_pool(losses, config).pooled_loss
        for c in (1e-6, 1.0, 1e6):
            scaled = solve_pool(c * losses, config).pooled_loss
            worst = max(worst, abs(scaled - c * base) / (c * base))
    report(
        6,
        "positive homogeneity",
        worst <= 1e-9,
        f"150 instances x c in {{1e-6, 1, 1e6}} incl p=1.05; worst rel {worst:.2e}",
    )


def read_curves(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_criterion_7_weight_curve_shapes(tmp_path, capsys):
    n = 100
    third = repr(n / 3.0)  # m = n/3, exact float64 round trip
    p_grid = ["1", "1.2", "1.4", "1.7", "2", "3", "4", "10", "inf"]
    path = tmp_path / "p_grid.csv"
    code = main(
        ["weight-curves", "--n", str(n), "--seed", "0",
         "--p-list", ",".join(p_grid), "--m-list", third,
         "--output", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    _, data = read_curves(path)
    uniform = 1.0 / n

    monotone = True
    support_ok = True
    distances = []
    for col in range(2, 2 + len(p_grid)):
        weights = data[:, col]
        monotone = monotone and np.all(np.diff(weights) >= 0.0)
        support_ok = support_ok and np.count_nonzero(weights > 0.0) >= 34
        distances.append(np.abs(weights - uniform).max())
    p_decreasing = all(a > b for a, b in zip(distances, distances[1:]))

    m_grid = ["0%", "10%", "20%", "40%", "80%", "100%"]
    path = tmp_path / "m_grid.csv"
    code = main(
        ["weight-curves", "--n", str(n), "--seed", "0",
         "--p-list", "1.7", "--m-list", ",".join(m_grid),
         "--output", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    _, data = read_curves(path)
    m_distances = [
        np.abs(data[:, col] - uniform).max() for col in range(2, 2 + len(m_grid))
    ]
    m_decreasing = all(a > b for a, b in zip(m_distances, m_distances[1:]))
    exact_at_full = m_distances[-1] == 0.0

    report(
        7,
        "weight curve shapes",
        monotone and support_ok and p_decreasing and m_decreasing and exact_at_full,
        f"monotone {monotone}, support>=34 {support_ok}, p-grid decreasing "
        f"{p_decreasing}, m-grid decreasing {m_decreasing}, zero at m=n "
        f"{exact_at_full}",
    )


def test_criterion_8_training_demo():
    started = time.perf_counter()
    seeds = [1, 2, 3, 4, 5]
    minority = 2  # fractions (0.90, 0.09, 0.01)
    wins = 0
    uniform_minority = []
    for seed in seeds:
        dataset = generate_dataset(SyntheticDatasetSpec(seed=100 + seed))
        uniform = train(dataset, TrainConfig(loss_mode="uniform", seed=seed))
        pooled = train(
            dataset,
            TrainConfig(
                loss_mode="lmp",
                pooling=PoolingConfig(p=1.3, m_fraction=0.25),
                seed=seed,
            ),
        )
        uniform_minority.append(uniform.per_class_iou[minority])
        if pooled.per_class_iou[minority] > uniform.per_class_iou[minority]:
            wins += 1

    # m at 100% must reproduce the uniform baseline step for step
    dataset = generate_dataset(SyntheticDatasetSpec(seed=101))
    uniform = train(dataset, TrainConfig(loss_mode="uniform", seed=1))
    full = train(
        dataset,
        TrainConfig(
            loss_mode="lmp", pooling=PoolingConfig(p=1.3, m_fraction=1.0), seed=1
        ),
    )
    step_gap = float(
        np.abs(np.array(uniform.loss_history) - np.array(full.loss_history)).max()
    )
    elapsed = time.perf_counter() - started

    hard_for_uniform = max(uniform_minority) < 0.5
    report(
        8,
        "training demo",
        wins >= 4 and hard_for_uniform and step_gap <= 1e-6 and elapsed < 300.0,
        f"lmp wins {wins}/5, uniform minority max "
        f"{max(uniform_minority):.3f} (< 0.5: {hard_for_uniform}), m=100% step "
        f"gap {step_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_9_sampler_distribution():
    stats = ClassStats(num_classes=3)
    labels = [0] * 4 + [1] * 5 + [2] * 2
    preds = [0] * 4 + [1, 1, 1, 2, 2] + [1, 2]
    update_stats(stats, preds, labels)  # iou exactly [1.0, 0.5, 0.25]

    config = SamplerConfig(blend=0.5, epsilon=0.01)
    expected = np.array(class_distribution(stats, config))
    rng = np.random.default_rng(9)
    draws = 100_000
    counts = np.zeros(3)
    for _ in range(draws):
        counts[sample_class(stats, config, rng)] += 1
    sigma = np.sqrt(draws * expected * (1.0 - expected))
    within = bool(np.all(np.abs(counts - draws * expected) <= 3.0 * sigma))

    uniform = class_distribution(stats, SamplerConfig(blend=1.0))
    exactly_uniform = np.array_equal(uniform, np.ones(3) / 3)

    report(
        9,
        "sampler distribution",
        within and exactly_uniform,
        f"1e5 draws within 3 sigma: {within}; blend=1 exactly uniform: "
        f"{exactly_uniform}",
    )
