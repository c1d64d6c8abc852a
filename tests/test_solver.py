"""Unit tests for the pooling solver.

Covers three layers:

* frozen worked examples with hand-checkable numbers,
* agreement with an independent arbitrary-precision reference solve
  (mpmath at 60 digits, written against the optimality conditions rather
  than the solver code),
* structural invariants that must hold on random instances: the pooled
  value upper-bounds the mean, the returned weighting is feasible and
  consistent, duality is tight, and the known limits (p = 1, p = inf,
  m = n) are recovered exactly.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import power as mpow

from losspool import (
    PoolingConfig,
    as_loss_vector,
    derive_parameters,
    dual_objective,
    eta,
    solve_pool,
    stable_qnorm,
)


def reference_solve(losses, p, m, dps=60):
    """Arbitrary-precision threshold solve, independent of the solver.

    Implements the optimality conditions directly on mpmath numbers: sort,
    scan the running root function until it turns positive, back out the
    threshold from the previous prefix.  Returns (pooled, alpha) as floats.
    """
    mp.dps = dps
    n = len(losses)
    # mpf(float) is exact binary conversion, so the reference starts from
    # the very same float64 inputs the solver sees.
    ls = sorted(mpf(float(x)) for x in losses)
    p_mp, m_mp = mpf(float(p)), mpf(float(m))
    q = mpf(1) / (mpf(1) - mpf(1) / p_mp)
    gamma = mpow(mpf(n), -mpf(1) / q)
    tau = gamma * mpow(m_mp, -mpf(1) / p_mp)
    powers = [mpow(x, q) for x in ls]
    running = mpf(0)
    stop = None
    a_prev, c_prev = mpf(0), m_mp
    for i in range(1, n + 1):
        running += powers[i - 1]
        count = m_mp - n + i
        if count * powers[i - 1] - running > 0:
            stop = i
            break
        a_prev, c_prev = running, count
    if stop is None:
        stop = n + 1
        a_prev, c_prev = running, m_mp
    alpha = mpow(a_prev / c_prev, mpf(1) / q) if a_prev > 0 else mpf(0)
    tail = ls[stop - 1:] if stop <= n else []
    pooled = tau * (sum(tail, mpf(0)) + (m_mp - len(tail)) * alpha)
    return float(pooled), float(alpha)


def random_losses(rng, n):
    if rng.random() < 0.5:
        return rng.uniform(0.0, 1.0, size=n)
    return rng.lognormal(mean=0.0, sigma=1.0, size=n)


class TestAsLossVector:
    def test_accepts_lists_and_arrays(self):
        out = as_loss_vector([1.0, 2.0, 0.0])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 0.0])

    def test_scalar_becomes_length_one(self):
        assert as_loss_vector(3.5).shape == (1,)

    @pytest.mark.parametrize(
        "bad",
        [[], [[1.0, 2.0]], [1.0, np.nan], [1.0, np.inf], [1.0, -0.5]],
        ids=["empty", "2d", "nan", "inf", "negative"],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            as_loss_vector(bad)


class TestDeriveParameters:
    def test_frozen_p2(self):
        r = derive_parameters(2.0, 2, m=1.0)
        assert r.q == 2.0
        np.testing.assert_allclose(r.gamma, 0.7071067811865476, rtol=1e-15)
        np.testing.assert_allclose(r.tau, 0.7071067811865476, rtol=1e-15)

    def test_frozen_quarter_fraction(self):
        """25% of a 100-pixel batch at p = 1.3."""
        r = derive_parameters(1.3, 100, m_fraction=0.25)
        assert r.m == 25.0
        np.testing.assert_allclose(r.q, 13.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(r.gamma, 0.3455107294592219, rtol=1e-15)
        np.testing.assert_allclose(r.tau, 0.029048457122286504, rtol=1e-15)

    def test_p_infinity_collapses_to_mean_weights(self):
        r = derive_parameters(math.inf, 7, m=3.0)
        assert (r.q, r.gamma, r.tau) == (1.0, 1.0 / 7, 1.0 / 7)

    def test_p_one_hard_selection(self):
        r = derive_parameters(1.0, 10, m=4.0)
        assert math.isinf(r.q)
        assert (r.gamma, r.tau) == (1.0, 0.25)

    def test_m_equal_n_gives_exact_uniform_cap(self):
        # gamma * n**(-1/p) equals 1/n only up to rounding if computed the
        # long way; the resolved tau must be exactly 1/n.
        for p in (1.3, 2.0, 7.0):
            r = derive_parameters(p, 12, m=12.0)
            assert r.tau == 1.0 / 12.0

    def test_fraction_clamps_to_at_least_one(self):
        r = derive_parameters(2.0, 3, m_fraction=0.01)
        assert r.m == 1.0

    def test_fraction_endpoints(self):
        assert derive_parameters(2.0, 8, m_fraction=0.0).m == 1.0
        assert derive_parameters(2.0, 8, m_fraction=1.0).m == 8.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0.5),
            dict(m=11.0),
            dict(m_fraction=-0.1),
            dict(m_fraction=1.5),
            dict(),
            dict(m=2.0, m_fraction=0.5),
        ],
        ids=["m-low", "m-high", "frac-neg", "frac-big", "neither", "both"],
    )
    def test_invalid_m(self, kwargs):
        with pytest.raises(ValueError):
            derive_parameters(2.0, 10, **kwargs)

    def test_invalid_p_and_n(self):
        with pytest.raises(ValueError):
            derive_parameters(0.9, 10, m=2.0)
        with pytest.raises(ValueError):
            derive_parameters(2.0, 0, m=1.0)

    def test_huge_conjugate_exponent_warns_and_hardens(self):
        with pytest.warns(RuntimeWarning, match="conjugate exponent"):
            r = derive_parameters(1.00005, 10, m=4.0)
        assert math.isinf(r.q)
        assert r.tau == 0.25


class TestPoolingConfig:
    def test_resolve_matches_derive(self):
        cfg = PoolingConfig(p=1.7, m_fraction=0.25)
        assert cfg.resolve(40) == derive_parameters(1.7, 40, m_fraction=0.25)

    def test_frozen(self):
        cfg = PoolingConfig(p=2.0, m=1.0)
        with pytest.raises(AttributeError):
            cfg.p = 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(p=0.5, m=1.0), dict(p=2.0), dict(p=2.0, m=1.0, m_fraction=0.5),
         dict(p=2.0, m=0.25), dict(p=2.0, m_fraction=2.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PoolingConfig(**kwargs)


class TestWorkedExamples:
    """Small instances with hand-checkable numbers."""

    def test_two_losses_sharpest_pooling(self):
        """losses (3, 1), p = 2, m = 1: nothing reaches the cap.

        gamma = tau = 2**-0.5 and the threshold solves
        alpha**2 = 9 + 1, so alpha = sqrt(10) and the weights are
        tau * l / alpha = (3, 1) / sqrt(20).  Pooled value sqrt(5).
        """
        out = solve_pool([3.0, 1.0], PoolingConfig(p=2.0, m=1.0))
        np.testing.assert_allclose(out.pooled_loss, math.sqrt(5.0), rtol=1e-14)
        np.testing.assert_allclose(out.alpha_star, math.sqrt(10.0), rtol=1e-14)
        assert out.support.size == 0
        np.testing.assert_allclose(
            out.weights, np.array([3.0, 1.0]) / math.sqrt(20.0), rtol=1e-14
        )
        np.testing.assert_allclose(out.dual, [0.0, 0.0], atol=0.0)

    def test_two_losses_full_support(self):
        """losses (2, 4), p = 2, m = n = 2 recovers the mean exactly."""
        out = solve_pool([2.0, 4.0], PoolingConfig(p=2.0, m=2.0))
        assert out.pooled_loss == 3.0
        np.testing.assert_array_equal(out.weights, [0.5, 0.5])

    def test_hard_top_two(self):
        """losses (4, 2, 1, 1), p = 1, m = 2: mean of the two largest."""
        out = solve_pool([4.0, 2.0, 1.0, 1.0], PoolingConfig(p=1.0, m=2.0))
        assert out.pooled_loss == 3.0
        assert out.alpha_star == 1.0
        np.testing.assert_array_equal(out.support, [0, 1])
        np.testing.assert_array_equal(out.weights, [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_array_equal(out.dual, [3.0, 1.0, 0.0, 0.0])

    def test_hard_top_fractional_m(self):
        """p = 1, m = 1.5 on (0.5, 1): cap the max, spread the rest.

        tau = 2/3 goes to the largest loss and the fractional weight
        tau * (m - 1) = 1/3 to the runner-up: pooled = 1/3 * 0.5 + 2/3 * 1.
        """
        out = solve_pool([0.5, 1.0], PoolingConfig(p=1.0, m=1.5))
        np.testing.assert_allclose(out.pooled_loss, 5.0 / 6.0, rtol=1e-15)
        assert out.alpha_star == 0.5
        np.testing.assert_allclose(out.weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_equal_losses_pool_to_common_value(self):
        out = solve_pool([7.25] * 4, PoolingConfig(p=2.0, m=2.0))
        np.testing.assert_allclose(out.pooled_loss, 7.25, rtol=1e-14)

    def test_single_loss(self):
        out = solve_pool([2.5], PoolingConfig(p=2.0, m=1.0))
        assert out.pooled_loss == 2.5
        np.testing.assert_array_equal(out.weights, [1.0])

    def test_threshold_beyond_float64_range(self):
        """alpha_star overflows; the pooled value and the weights do not."""
        out = solve_pool([1.7e308] * 3 + [1.0], PoolingConfig(p=4.0, m=2.5))
        assert out.alpha_star == math.inf
        np.testing.assert_allclose(out.pooled_loss, 1.370076663075016e308, rtol=1e-13)
        assert np.all(np.isfinite(out.weights))
        assert out.support.size == 0

    def test_all_zero_losses(self):
        out = solve_pool([0.0, 0.0, 0.0], PoolingConfig(p=1.3, m=2.0))
        assert out.pooled_loss == 0.0
        assert out.alpha_star == 0.0
        assert out.support.size == 0
        np.testing.assert_array_equal(out.weights, np.zeros(3))


class TestReferenceAgreement:
    """Solver versus the 60-digit reference on mixed regimes."""

    @pytest.mark.parametrize(
        "losses, p, m",
        [
            ([3.0, 1.0], 2.0, 1.0),
            ([1.0, 2.0, 3.0, 4.0, 5.0], 1.3, 2.5),
            ([0.2, 0.9, 1.7, 1.7, 4.2, 0.05], 1.7, 3.2),
            ([10.0, 1e-6, 5.0, 2.0], 4.0, 1.8),
            ([1e-8, 2e-8, 3e-8], 1.1, 2.0),
            ([0.5, 1.0], 1.05, 1.5),
            ([1.0] + [0.2] * 20, 1.0015, 2.5),
            ([1.0] + [0.2] * 20, 1.00011, 2.5),
            ([1.0] + [0.05] * 20, 1.003, 2.5),
            ([1e-300, 1e-10, 1.0, 3e5, 7e-200], 1.001, 2.2),
        ],
        ids=[
            "p2", "p1.3", "ties", "spread", "tiny", "near-one",
            "p1.0015", "p1.00011", "p1.003", "thirty-decades",
        ],
    )
    def test_matches_reference(self, losses, p, m):
        expected_pooled, expected_alpha = reference_solve(losses, p, m)
        out = solve_pool(losses, PoolingConfig(p=p, m=m))
        np.testing.assert_allclose(out.pooled_loss, expected_pooled, rtol=5e-14)
        np.testing.assert_allclose(out.alpha_star, expected_alpha, rtol=5e-14)

    def test_matches_reference_extended_precision_path(self):
        """p = 1.0005 (q about 2000), where powers l**q leave float64 range."""
        losses = [0.5, 1.0, 0.25, 0.75]
        out = solve_pool(losses, PoolingConfig(p=1.0005, m=2.5))
        expected_pooled, expected_alpha = reference_solve(losses, 1.0005, 2.5)
        np.testing.assert_allclose(out.pooled_loss, expected_pooled, rtol=1e-13)
        np.testing.assert_allclose(out.alpha_star, expected_alpha, rtol=1e-13)

    def test_random_instances_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            losses = random_losses(rng, n)
            p = float(rng.choice([1.1, 1.3, 1.7, 2.0, 4.0]))
            m = float(rng.uniform(1.0, n))
            expected_pooled, expected_alpha = reference_solve(losses, p, m)
            out = solve_pool(losses, PoolingConfig(p=p, m=m))
            np.testing.assert_allclose(out.pooled_loss, expected_pooled, rtol=1e-12)
            np.testing.assert_allclose(
                out.alpha_star, expected_alpha, rtol=1e-12, atol=1e-300
            )


class TestInvariants:
    """Structural properties on seeded random instances."""

    P_CHOICES = (1.0, 1.1, 1.3, 1.7, 2.0, 4.0, 50.0, math.inf)

    def instances(self, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 41))
            losses = random_losses(rng, n)
            p = float(rng.choice(self.P_CHOICES))
            m = float(rng.uniform(1.0, n)) if n > 1 else 1.0
            yield losses, PoolingConfig(p=p, m=m)

    def test_upper_bounds_mean(self):
        for losses, cfg in self.instances(150, seed=11):
            out = solve_pool(losses, cfg)
            assert out.pooled_loss >= float(np.mean(losses))

    def test_weights_feasible_and_consistent(self):
        for losses, cfg in self.instances(150, seed=12):
            out = solve_pool(losses, cfg)
            pr = out.params
            assert np.all(out.weights >= 0.0)
            assert out.weights.max() <= pr.tau * (1.0 + 1e-9)
            norm = (
                out.weights.max()
                if math.isinf(pr.p)
                else stable_qnorm(out.weights, pr.p)
            )
            assert norm <= pr.gamma * (1.0 + 1e-9)
            np.testing.assert_allclose(
                float(out.weights @ losses), out.pooled_loss, rtol=1e-9, atol=1e-300
            )

    def test_support_size(self):
        for losses, cfg in self.instances(150, seed=13):
            out = solve_pool(losses, cfg)
            pr = out.params
            if np.all(losses > 0):
                assert np.count_nonzero(out.weights > 0) >= math.ceil(pr.m)
            if 1.0 < pr.p < math.inf and pr.q < math.inf:
                assert out.support.size < pr.m
            if pr.p == 1.0 and losses.max() > 0:
                assert out.support.size == math.floor(pr.m)
            assert out.support.dtype == np.intp
            assert np.all(np.diff(out.support) > 0)

    def test_larger_losses_never_get_smaller_weights(self):
        for losses, cfg in self.instances(100, seed=14):
            out = solve_pool(losses, cfg)
            order = np.argsort(losses, kind="stable")
            ls, ws = losses[order], out.weights[order]
            increase = np.diff(ls) > 0
            assert np.all(np.diff(ws)[increase] >= -1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        for losses, cfg in self.instances(50, seed=16):
            if losses.size < 2:
                continue
            perm = rng.permutation(losses.size)
            out = solve_pool(losses, cfg)
            out_p = solve_pool(losses[perm], cfg)
            np.testing.assert_allclose(
                out_p.pooled_loss, out.pooled_loss, rtol=1e-12
            )
            np.testing.assert_allclose(
                np.sort(out_p.weights), np.sort(out.weights), rtol=1e-9, atol=1e-15
            )

    def test_positive_homogeneity(self):
        for losses, cfg in self.instances(50, seed=17):
            out = solve_pool(losses, cfg)
            for c in (1e-6, 1e6):
                scaled = solve_pool(c * losses, cfg)
                np.testing.assert_allclose(
                    scaled.pooled_loss, c * out.pooled_loss, rtol=1e-9
                )
                np.testing.assert_allclose(
                    scaled.alpha_star, c * out.alpha_star, rtol=1e-9, atol=1e-300
                )
                np.testing.assert_allclose(
                    scaled.weights, out.weights, rtol=1e-9, atol=1e-15
                )

    def test_pooled_value_non_increasing_in_m(self):
        rng = np.random.default_rng(18)
        losses = rng.lognormal(0.0, 1.0, 30)
        for p in (1.0, 1.3, 2.0, 4.0):
            values = [
                solve_pool(losses, PoolingConfig(p=p, m=m)).pooled_loss
                for m in np.linspace(1.0, 30.0, 12)
            ]
            assert np.all(np.diff(values) <= 1e-12)


class TestLimits:
    def test_p_infinity_is_exact_mean(self):
        rng = np.random.default_rng(20)
        losses = rng.uniform(0.0, 5.0, 33)
        out = solve_pool(losses, PoolingConfig(p=math.inf, m=4.0))
        assert out.pooled_loss == float(np.mean(losses))
        np.testing.assert_array_equal(out.weights, np.full(33, 1.0 / 33))

    def test_m_equal_n_is_exact_mean(self):
        rng = np.random.default_rng(21)
        losses = rng.uniform(0.0, 5.0, 17)
        for p in (1.0, 1.3, 2.0, 9.0):
            out = solve_pool(losses, PoolingConfig(p=p, m=17.0))
            assert out.pooled_loss == float(np.mean(losses))
            np.testing.assert_array_equal(out.weights, np.full(17, 1.0 / 17))

    @pytest.mark.parametrize(
        "config", [PoolingConfig(p=math.inf, m=2.0), PoolingConfig(p=2.0, m=3.0)]
    )
    def test_mean_near_float64_max_does_not_overflow(self, config):
        out = solve_pool([1.7e308] * 3, config)
        assert out.pooled_loss == pytest.approx(1.7e308, rel=1e-15)
        np.testing.assert_array_equal(out.weights, np.full(3, 1.0 / 3))

    def test_p_one_m_one_is_exact_max(self):
        rng = np.random.default_rng(22)
        losses = rng.lognormal(0.0, 1.0, 25)
        out = solve_pool(losses, PoolingConfig(p=1.0, m=1.0))
        assert out.pooled_loss == float(losses.max())

    def test_p_one_integer_m_is_top_m_mean(self):
        rng = np.random.default_rng(23)
        losses = rng.lognormal(0.0, 1.0, 25)
        for m in (1, 5, 12, 24):
            out = solve_pool(losses, PoolingConfig(p=1.0, m=float(m)))
            top = float(np.mean(np.sort(losses)[-m:]))
            np.testing.assert_allclose(out.pooled_loss, top, rtol=1e-12)

    def test_large_p_weights_near_uniform(self):
        rng = np.random.default_rng(24)
        losses = rng.uniform(0.5, 2.0, 64)
        out = solve_pool(losses, PoolingConfig(p=50.0, m=10.0))
        assert np.abs(out.weights - 1.0 / 64).max() < 1e-2

    def test_conjugate_cap_falls_back_to_hard_top(self):
        losses = [0.5, 1.0]
        with pytest.warns(RuntimeWarning, match="conjugate exponent"):
            capped = solve_pool(losses, PoolingConfig(p=1.00005, m=1.5))
        hard = solve_pool(losses, PoolingConfig(p=1.0, m=1.5))
        assert capped.pooled_loss == hard.pooled_loss
        np.testing.assert_array_equal(capped.weights, hard.weights)


class TestEta:
    def test_below_threshold_negative(self):
        # (m - |J|) * alpha**q - sum of losses below: 0 * 9 - 1 = -1.
        assert eta(3.0, [1.0, 3.0], q=2.0, m=1.0) == -1.0

    def test_root_at_threshold(self):
        assert abs(eta(math.sqrt(10.0), [1.0, 3.0], q=2.0, m=1.0)) < 1e-13

    def test_positive_above_threshold(self):
        assert eta(4.0, [1.0, 3.0], q=2.0, m=1.0) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            eta(-0.1, [1.0], q=2.0, m=1.0)
        with pytest.raises(ValueError):
            eta(1.0, [1.0], q=math.inf, m=1.0)
        with pytest.raises(ValueError):
            eta(1.0, [1.0], q=0.5, m=1.0)

    def test_solver_threshold_is_largest_root(self):
        """eta vanishes at alpha_star and is positive just above it."""
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            losses = random_losses(rng, n)
            p = float(rng.choice([1.1, 1.3, 2.0, 4.0]))
            cfg = PoolingConfig(p=p, m=float(rng.uniform(1.0, n)))
            out = solve_pool(losses, cfg)
            scale = losses.max()
            if scale == 0.0 or out.alpha_star == 0.0:
                continue
            alpha_n = out.alpha_star / scale
            assert abs(eta(alpha_n, losses / scale, out.params.q, out.params.m)) < 1e-9
            for factor in (2.0, 10.0):
                assert eta(factor * alpha_n, losses / scale, out.params.q, out.params.m) > 0.0


class TestDualObjective:
    def test_at_zero_is_scaled_norm(self):
        cfg = PoolingConfig(p=2.0, m=1.0)
        value = dual_objective([0.0, 0.0], [3.0, 1.0], cfg)
        np.testing.assert_allclose(value, math.sqrt(5.0), rtol=1e-14)

    def test_at_losses_is_capped_sum(self):
        cfg = PoolingConfig(p=2.0, m=1.0)
        value = dual_objective([3.0, 1.0], [3.0, 1.0], cfg)
        np.testing.assert_allclose(value, 4.0 / math.sqrt(2.0), rtol=1e-14)

    def test_optimal_dual_meets_pooled_value(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            losses = random_losses(rng, n)
            p = float(rng.choice([1.1, 1.3, 1.7, 2.0, 4.0]))
            cfg = PoolingConfig(p=p, m=float(rng.uniform(1.0, n)) if n > 1 else 1.0)
            out = solve_pool(losses, cfg)
            bound = dual_objective(out.dual, losses, cfg)
            np.testing.assert_allclose(bound, out.pooled_loss, rtol=1e-7, atol=1e-300)

    def test_any_feasible_dual_upper_bounds(self):
        rng = np.random.default_rng(32)
        losses = rng.lognormal(0.0, 1.0, 20)
        cfg = PoolingConfig(p=1.7, m=5.0)
        pooled = solve_pool(losses, cfg).pooled_loss
        for _ in range(20):
            lam = rng.uniform(0.0, 2.0, 20)
            assert dual_objective(lam, losses, cfg) >= pooled - 1e-9 * pooled

    def test_validation(self):
        cfg = PoolingConfig(p=1.0, m=1.0)
        with pytest.raises(ValueError, match="p > 1"):
            dual_objective([0.0], [1.0], cfg)
        cfg2 = PoolingConfig(p=2.0, m=1.0)
        with pytest.raises(ValueError):
            dual_objective([0.0], [1.0, 2.0], cfg2)
        with pytest.raises(ValueError):
            dual_objective([-0.1, 0.0], [1.0, 2.0], cfg2)


class TestGradient:
    def test_matches_finite_differences(self):
        """Central differences on a tie-free instance agree with the weights."""
        losses = np.array([0.3, 1.1, 2.4, 0.7, 3.9])
        cfg = PoolingConfig(p=1.7, m=2.3)
        grad = solve_pool(losses, cfg).weights
        h = 1e-6
        for i in range(losses.size):
            bumped = losses.copy()
            bumped[i] += h
            up = solve_pool(bumped, cfg).pooled_loss
            bumped[i] -= 2 * h
            down = solve_pool(bumped, cfg).pooled_loss
            np.testing.assert_allclose(grad[i], (up - down) / (2 * h), atol=1e-6)


class TestStableQnorm:
    def test_matches_plain_norm_in_range(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(-2.0, 2.0, 50)
        for q in (1.0, 1.5, 2.0, 4.0):
            np.testing.assert_allclose(
                stable_qnorm(x, q),
                float(np.sum(np.abs(x) ** q) ** (1.0 / q)),
                rtol=1e-12,
            )

    def test_no_overflow_for_huge_entries(self):
        value = stable_qnorm(np.array([1e300, 1e300]), 4.0)
        np.testing.assert_allclose(value, 1e300 * 2.0**0.25, rtol=1e-12)

    def test_no_underflow_for_tiny_entries(self):
        value = stable_qnorm(np.array([1e-300, 1e-300]), 4.0)
        np.testing.assert_allclose(value, 1e-300 * 2.0**0.25, rtol=1e-12)

    def test_zero_vector(self):
        assert stable_qnorm(np.zeros(3), 2.0) == 0.0
