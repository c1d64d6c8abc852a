"""Tests for the per-pixel loss layer and its gradient chain.

Frozen values below come from direct evaluation of the closed forms: for
logits z and label y the loss is log(sum_j exp(z_j)) - z_y and the logit
gradient is softmax(z) - onehot(y).
"""

import numpy as np
import pytest
from helpers import softmax_xent_row_major

from losspool.pixel_losses import PixelLossResult, SegBatch, backprop_pooled, softmax_xent
from losspool.solver import PoolingConfig, solve_pool

LN3 = 1.0986122886681098
LN_ONE_PLUS_E = 1.3132616875182228


class TestSegBatch:
    def test_defaults_to_all_valid(self):
        batch = SegBatch(logits=[[0.0, 1.0], [2.0, 0.0]], labels=[0, 1])
        assert batch.logits.shape == (2, 2)

    def test_logits_coerced_to_float64(self):
        batch = SegBatch(logits=np.zeros((3, 4), dtype=np.float32), labels=[0, 1, 2])
        assert batch.logits.dtype == np.float64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"logits": np.zeros(4), "labels": [0]},
            {"logits": np.zeros((3, 1)), "labels": [0, 0, 0]},
            {"logits": [[0.0, np.inf]], "labels": [0]},
            {"logits": [[0.0, np.nan]], "labels": [0]},
            {"logits": np.zeros((2, 2)), "labels": [0]},
            {"logits": np.zeros((2, 2)), "labels": [0.0, 1.0]},
            {"logits": np.zeros((2, 2)), "labels": [0, 2]},
            {"logits": np.zeros((2, 2)), "labels": [0, -1]},
            {"logits": np.zeros((0, 2)), "labels": np.zeros(0, dtype=int)},
        ],
        ids=[
            "logits-1d",
            "single-class",
            "inf-logit",
            "nan-logit",
            "label-shape",
            "float-labels",
            "label-too-big",
            "label-negative",
            "empty",
        ],
    )
    def test_rejects_malformed_batches(self, kwargs):
        with pytest.raises(ValueError):
            SegBatch(**kwargs)


class TestSoftmaxXent:
    def test_uniform_logits_give_log_num_classes(self):
        batch = SegBatch(logits=np.zeros((1, 3)), labels=[0])
        result = softmax_xent(batch)
        assert result.losses[0] == pytest.approx(LN3, rel=1e-15)
        expected_grad = np.array([[1 / 3 - 1.0, 1 / 3, 1 / 3]])
        np.testing.assert_allclose(result.per_pixel_logit_grad, expected_grad, rtol=1e-14)

    def test_two_class_example(self):
        batch = SegBatch(logits=[[1.0, 2.0]], labels=[0])
        result = softmax_xent(batch)
        assert result.losses[0] == pytest.approx(LN_ONE_PLUS_E, rel=1e-15)

    def test_saturated_pixel_clamps_to_zero(self):
        batch = SegBatch(logits=[[100.0, 0.0, 0.0]], labels=[0])
        result = softmax_xent(batch)
        # True loss is log(1 + 2 e^-100) ~ 7.4e-44; anything at that scale
        # or the clamped 0.0 is acceptable, a negative is not.
        assert 0.0 <= result.losses[0] <= 1e-40

    def test_never_negative_even_when_saturated(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(0.0, 40.0, size=(500, 4))
        labels = logits.argmax(axis=1)  # confident and correct everywhere
        result = softmax_xent(SegBatch(logits=logits, labels=labels))
        assert (result.losses >= 0.0).all()

    def test_extreme_logits_stay_finite(self):
        batch = SegBatch(logits=[[1000.0, -1000.0], [-1000.0, 1000.0]], labels=[1, 0])
        result = softmax_xent(batch)
        assert np.all(np.isfinite(result.losses))
        assert result.losses[0] == pytest.approx(2000.0, rel=1e-12)

    def test_all_masked_raises(self):
        # A crop with no pixel to score never reaches the loss or the solver.
        with pytest.raises(ValueError, match="no pixels"):
            softmax_xent(SegBatch(logits=np.zeros((0, 2)), labels=np.zeros(0, dtype=int)))

    def test_per_pixel_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        result = softmax_xent(SegBatch(logits=logits, labels=labels))

        h = 1e-6
        for pixel in range(6):
            for cls in range(4):
                up = logits.copy()
                up[pixel, cls] += h
                down = logits.copy()
                down[pixel, cls] -= h
                lu = softmax_xent(SegBatch(logits=up, labels=labels)).losses[pixel]
                ld = softmax_xent(SegBatch(logits=down, labels=labels)).losses[pixel]
                fd = (lu - ld) / (2 * h)
                assert result.per_pixel_logit_grad[pixel, cls] == pytest.approx(
                    fd, abs=1e-8
                )


def logit_draws(classes, seed, pixels=1000):
    """Random, saturated (entries of -700, 0 and 700) and tied (integers in
    [-2, 2]) logits, with random labels."""
    rng = np.random.default_rng(seed)
    shape = (pixels, classes)
    draws = {
        "random": rng.normal(0.0, 3.0, size=shape),
        "saturated": rng.choice([-700.0, 0.0, 700.0], size=shape),
        "tied": rng.integers(-2, 3, size=shape).astype(np.float64),
    }
    return draws, rng.integers(0, classes, size=pixels)


class TestClassMajorOrder:
    """``softmax_xent`` against the row-major formula: the same bits below 8
    classes, where numpy sums each row left to right, and a bounded drift
    from 8 on, where numpy's row sum is pairwise."""

    @pytest.mark.parametrize("kind", ["random", "saturated", "tied"])
    @pytest.mark.parametrize("classes", range(2, 8))
    def test_bit_identical_below_8_classes(self, classes, kind):
        draws, labels = logit_draws(classes, seed=classes)
        result = softmax_xent(SegBatch(logits=draws[kind], labels=labels))
        losses, grad = softmax_xent_row_major(draws[kind], labels)
        assert result.losses.tobytes() == losses.tobytes()
        assert result.per_pixel_logit_grad.tobytes() == grad.tobytes()
        # The trainer's per-crop matmul rounds by the gradient's layout.
        assert result.per_pixel_logit_grad.flags.c_contiguous

    @pytest.mark.parametrize("classes", range(8, 34))
    def test_drift_is_bounded_from_8_classes(self, classes):
        draws, labels = logit_draws(classes, seed=classes)
        eps = np.finfo(np.float64).eps
        for logits in draws.values():
            result = softmax_xent(SegBatch(logits=logits, labels=labels))
            losses, grad = softmax_xent_row_major(logits, labels)
            drift = np.abs(result.losses - losses)
            assert np.all(drift <= 8 * eps * np.maximum(1.0, losses))
            assert np.max(np.abs(result.per_pixel_logit_grad - grad)) <= 2e-15

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int16])
    def test_narrow_label_types_index_every_pixel(self, dtype):
        # label * pixels overflows these types; 1000 pixels, 5 classes.
        draws, labels = logit_draws(5, seed=4)
        wide = softmax_xent(SegBatch(logits=draws["random"], labels=labels))
        narrow = softmax_xent(SegBatch(logits=draws["random"], labels=labels.astype(dtype)))
        assert narrow.losses.tobytes() == wide.losses.tobytes()
        assert narrow.per_pixel_logit_grad.tobytes() == wide.per_pixel_logit_grad.tobytes()

    def test_leaves_the_batch_logits_alone(self):
        # One pixel: logits.T is contiguous, so a view would be written to.
        logits = np.array([[3.0, -1.0, 0.5]])
        softmax_xent(SegBatch(logits=logits, labels=[1]))
        assert logits.tolist() == [[3.0, -1.0, 0.5]]


class TestBackpropPooled:
    def test_shapes_and_masking(self):
        logits = np.arange(12.0).reshape(4, 3)
        result = softmax_xent(SegBatch(logits=logits, labels=[0, 1, 2, 0]))
        grad = backprop_pooled(result, np.array([0.5, 0.25, 0.0, 0.25]))
        assert grad.shape == (4, 3)
        assert np.all(grad[2] == 0.0)
        np.testing.assert_allclose(
            grad[0], 0.5 * result.per_pixel_logit_grad[0], rtol=1e-15
        )

    def test_rejects_weight_length_mismatch(self):
        result = softmax_xent(SegBatch(logits=np.zeros((3, 2)), labels=[0, 1, 0]))
        with pytest.raises(ValueError, match="one weight per pixel"):
            backprop_pooled(result, np.array([0.5, 0.5]))

    def test_uniform_weights_reproduce_mean_loss_gradient(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        result = softmax_xent(SegBatch(logits=logits, labels=labels))
        grad = backprop_pooled(result, np.full(10, 0.1))
        np.testing.assert_allclose(
            grad, result.per_pixel_logit_grad / 10.0, rtol=1e-15
        )

    def test_pooled_objective_matches_finite_differences_end_to_end(self):
        # d pool(losses(logits)) / d logits via the chain
        # backprop_pooled(result, solve_pool(...).weights), checked against
        # central differences through the whole pipeline.  Logits are kept
        # tie-free so the pooled objective is differentiable at the point.
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(7, 3))
        labels = rng.integers(0, 3, size=7)
        config = PoolingConfig(p=1.7, m=2.3)

        def pooled(z: np.ndarray) -> float:
            losses = softmax_xent(SegBatch(logits=z, labels=labels)).losses
            return solve_pool(losses, config).pooled_loss

        result = softmax_xent(SegBatch(logits=logits, labels=labels))
        outcome = solve_pool(result.losses, config)
        grad = backprop_pooled(result, outcome.weights)

        h = 1e-5
        for pixel in range(7):
            for cls in range(3):
                up = logits.copy()
                up[pixel, cls] += h
                down = logits.copy()
                down[pixel, cls] -= h
                fd = (pooled(up) - pooled(down)) / (2 * h)
                assert grad[pixel, cls] == pytest.approx(fd, abs=2e-6), (pixel, cls)

    def test_result_is_fresh_storage(self):
        result = softmax_xent(SegBatch(logits=np.zeros((2, 2)), labels=[0, 1]))
        grad = backprop_pooled(result, np.array([1.0, 1.0]))
        grad[:] = 99.0
        assert not np.any(result.per_pixel_logit_grad == 99.0)


class TestPixelLossResult:
    def test_frozen(self):
        result = softmax_xent(SegBatch(logits=np.zeros((2, 2)), labels=[0, 1]))
        assert isinstance(result, PixelLossResult)
        with pytest.raises(AttributeError):
            result.losses = np.zeros(2)
