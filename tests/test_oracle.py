"""Tests for the verification oracles.

The oracles exist to check the solver, so most of these tests make sure the
oracles themselves are trustworthy: the projections really are nearest
points, the two independent routes agree with each other, and the audit
harness flags nothing on seeded random instances.
"""

import math

import numpy as np
import pytest

from losspool import PoolingConfig, derive_parameters, solve_pool, stable_qnorm
from losspool.oracle import (
    constraint_violation,
    kkt_residual,
    maximize_primal,
    project_feasible,
    project_feasible_dykstra,
    random_instance,
    rel_err,
    run_audit,
    scan_dual_alpha,
)


def random_params(rng, n=None):
    n = n or int(rng.integers(2, 30))
    p = float(rng.choice([1.3, 2.0, 4.0]))
    m = float(rng.uniform(1.0, n))
    return derive_parameters(p, n, m=m)


def ball(p, n, radius):
    """Projection parameters of the p-norm ball alone: the cap lifted."""
    return derive_parameters(p, n, m=1.0)._replace(gamma=radius, tau=math.inf)


class TestBallProjection:
    """The joint projection with ``tau = inf`` on non-negative points."""

    def test_inside_ball_is_identity(self):
        v = np.array([0.1, 0.2, 0.05])
        out = project_feasible(v, ball(2.0, 3, 1.0))
        np.testing.assert_array_equal(out, v)
        assert out is not v

    def test_euclidean_case_is_radial_scaling(self):
        rng = np.random.default_rng(1)
        v = np.abs(rng.normal(0.0, 1.0, 10)) * 5.0
        out = project_feasible(v, ball(2.0, 10, 0.7))
        np.testing.assert_allclose(
            out, v * 0.7 / np.linalg.norm(v), rtol=1e-10
        )

    @pytest.mark.parametrize("p", [1.3, 1.7, 2.0, 4.0, 8.0])
    def test_lands_on_surface(self, p):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = np.abs(rng.normal(0.0, 2.0, 15))
            out = project_feasible(v, ball(p, 15, 0.5))
            np.testing.assert_allclose(stable_qnorm(out, p), 0.5, rtol=1e-9)

    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_is_nearest_point(self, p):
        """No random point of the ball, of either sign, may be closer."""
        rng = np.random.default_rng(3)
        v = np.abs(rng.normal(0.0, 2.0, 8))
        out = project_feasible(v, ball(p, 8, 0.5))
        base = np.linalg.norm(v - out)
        for _ in range(200):
            z = rng.normal(0.0, 1.0, 8)
            norm = stable_qnorm(z, p)
            if norm > 0.5:
                z = z * (0.5 / norm) * rng.uniform(0.2, 1.0)
            assert np.linalg.norm(v - z) >= base - 1e-10


class TestFeasibleProjection:
    def test_feasible_point_is_fixed(self):
        params = derive_parameters(2.0, 4, m=2.0)
        w = np.full(4, 0.25)
        out = project_feasible(w, params)
        np.testing.assert_allclose(out, w, atol=1e-12)

    def test_far_point_projects_inward(self):
        """A point far outside projects onto the ball along its direction.

        With p = 2 and the cap slack, the joint projection reduces to radial
        scaling, which pins down the exact answer.
        """
        params = derive_parameters(2.0, 2, m=1.0)
        point = np.array([30000.5, 10000.5])
        out = project_feasible(point, params)
        expected = params.gamma * point / np.linalg.norm(point)
        assert expected.max() < params.tau  # cap indeed slack
        np.testing.assert_allclose(out, expected, rtol=1e-9)

    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_result_is_feasible(self, p):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            params = derive_parameters(p, n, m=float(rng.uniform(1.0, n)))
            point = rng.normal(0.0, 1.0, n) * rng.choice([0.1, 1.0, 100.0])
            out = project_feasible(point, params)
            assert constraint_violation(out, params) <= 1e-9

    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_is_nearest_feasible_point(self, p):
        rng = np.random.default_rng(5)
        n = 10
        params = derive_parameters(p, n, m=3.0)
        point = rng.normal(0.2, 0.5, n)
        out = project_feasible(point, params)
        base = np.linalg.norm(point - out)
        for _ in range(300):
            z = np.clip(rng.uniform(0.0, params.tau, n), 0.0, params.tau)
            norm = stable_qnorm(z, p)
            if norm > params.gamma:
                z = z * (params.gamma / norm)
            assert np.linalg.norm(point - z) >= base - 1e-10

    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_agrees_with_alternating_reference(self, p):
        """Exact projection matches the Dykstra reference near the set.

        The reference converges slowly from far away, so this check feeds it
        points within a small multiple of the set size.
        """
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            params = derive_parameters(p, n, m=float(rng.uniform(1.0, n)))
            point = rng.normal(0.0, 2.0 * params.tau, n)
            exact = project_feasible(point, params)
            reference = project_feasible_dykstra(point, params)
            np.testing.assert_allclose(exact, reference, atol=1e-8)

    def test_warm_state_matches_cold(self):
        rng = np.random.default_rng(7)
        params = derive_parameters(1.7, 12, m=4.0)
        state: dict = {}
        for _ in range(5):
            point = rng.normal(0.5, 1.0, 12)
            warm = project_feasible(point, params, state=state)
            cold = project_feasible(point, params)
            np.testing.assert_allclose(warm, cold, atol=1e-10)

    def test_rejects_p_one_and_infinity(self):
        with pytest.raises(ValueError):
            project_feasible(np.ones(3), derive_parameters(1.0, 3, m=2.0))
        with pytest.raises(ValueError):
            project_feasible(np.ones(3), derive_parameters(math.inf, 3, m=2.0))


class TestPrimalAscent:
    def test_worked_example(self):
        report = maximize_primal([3.0, 1.0], PoolingConfig(p=2.0, m=1.0))
        assert report.converged
        np.testing.assert_allclose(report.value, math.sqrt(5.0), rtol=1e-9)
        # The objective is flat at the maximiser, so the iterate converges
        # more slowly than the value.
        np.testing.assert_allclose(
            report.weights, np.array([3.0, 1.0]) / math.sqrt(20.0), atol=1e-5
        )
        assert report.max_constraint_violation <= 1e-10

    def test_zero_losses(self):
        report = maximize_primal([0.0, 0.0], PoolingConfig(p=2.0, m=1.0))
        assert report.value == 0.0
        assert report.converged

    def test_converges_fast_with_large_steps(self):
        rng = np.random.default_rng(8)
        losses = rng.lognormal(0.0, 1.0, 30)
        report = maximize_primal(losses, PoolingConfig(p=1.3, m=7.5))
        assert report.converged
        assert report.iterations < 50

    def test_requires_finite_p_above_one(self):
        with pytest.raises(ValueError):
            maximize_primal([1.0, 2.0], PoolingConfig(p=1.0, m=1.0))


class TestDualScan:
    def test_worked_example(self):
        report = scan_dual_alpha([3.0, 1.0], PoolingConfig(p=2.0, m=1.0))
        assert report.converged
        np.testing.assert_allclose(report.value, math.sqrt(5.0), rtol=1e-9)
        assert 0.0 <= report.alpha <= 3.0

    def test_zero_losses(self):
        report = scan_dual_alpha([0.0, 0.0, 0.0], PoolingConfig(p=2.0, m=2.0))
        assert report.value == 0.0
        assert report.alpha == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_dual_alpha([1.0, 2.0], PoolingConfig(p=1.0, m=1.0))


class TestOracleAgreement:
    """The two oracles and the solver must tell the same story."""

    def test_three_way_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            losses, config = random_instance(rng, max_n=30)
            pooled = solve_pool(losses, config).pooled_loss
            ascent = maximize_primal(losses, config)
            scan = scan_dual_alpha(losses, config)
            assert rel_err(ascent.value, scan.value) < 1e-8
            assert rel_err(pooled, ascent.value) < 1e-8
            assert rel_err(pooled, scan.value) < 1e-8

    def test_ascent_never_exceeds_scan(self):
        """Weak duality: every feasible primal value sits below every dual."""
        rng = np.random.default_rng(10)
        for _ in range(40):
            losses, config = random_instance(rng, max_n=30)
            ascent = maximize_primal(losses, config)
            scan = scan_dual_alpha(losses, config)
            assert ascent.value <= scan.value * (1.0 + 1e-9) + 1e-15


class TestKkt:
    def test_optimal_dual_passes(self):
        losses = np.array([3.0, 1.0]) / 3.0
        cfg = PoolingConfig(p=2.0, m=1.0)
        out = solve_pool(losses, cfg)
        assert kkt_residual(out.dual, losses, cfg) < 1e-12

    def test_perturbed_dual_fails(self):
        losses = np.array([0.9, 0.3, 0.6, 0.1])
        cfg = PoolingConfig(p=1.7, m=2.0)
        out = solve_pool(losses, cfg)
        lam = out.dual + 0.05
        assert kkt_residual(lam, losses, cfg) > 1e-6

    def test_zero_vector_fails_when_cap_binds(self):
        # With m = 2 the top loss reaches the cap, so the optimal dual has a
        # strictly positive entry there and zero cannot be a fixed point.
        losses = np.array([1.0, 0.1, 0.05])
        cfg = PoolingConfig(p=2.0, m=2.0)
        out = solve_pool(losses, cfg)
        assert out.dual.max() > 0.0
        assert kkt_residual(np.zeros(3), losses, cfg) > 1e-6

    def test_random_optima_pass_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            losses, config = random_instance(rng, max_n=30)
            scale = losses.max()
            if scale == 0.0:
                continue
            out = solve_pool(losses, config)
            assert kkt_residual(out.dual / scale, losses / scale, config) < 1e-9

    def test_validation(self):
        cfg = PoolingConfig(p=1.0, m=1.0)
        with pytest.raises(ValueError):
            kkt_residual([0.0], [1.0], cfg)
        cfg2 = PoolingConfig(p=2.0, m=1.0)
        with pytest.raises(ValueError):
            kkt_residual([0.0, 0.0], [1.0], cfg2)


class TestAudit:
    def test_random_instance_is_seed_deterministic(self):
        a_losses, a_cfg = random_instance(np.random.default_rng(42))
        b_losses, b_cfg = random_instance(np.random.default_rng(42))
        np.testing.assert_array_equal(a_losses, b_losses)
        assert a_cfg == b_cfg

    def test_small_audit_passes(self):
        summary = run_audit(instances=25, seed=123)
        assert summary.all_passed
        assert max(summary.worst_ascent_err, summary.worst_scan_err) < 1e-8
        assert len(summary.rows) == 25

    def test_audit_is_reproducible(self):
        a = run_audit(instances=10, seed=7)
        b = run_audit(instances=10, seed=7)
        assert [r.solver_value for r in a.rows] == [r.solver_value for r in b.rows]
        assert [r.ascent_value for r in a.rows] == [r.ascent_value for r in b.rows]
