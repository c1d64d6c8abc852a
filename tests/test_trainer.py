"""Tests for the synthetic segmentation task and the crop trainer.

The slow end: a zero-noise run must reach essentially perfect IoU (the
task is linearly separable), and pooling with m at 100% of the pixels must
reproduce plain mean-loss training exactly, step for step.
"""

import json

import numpy as np
import pytest

from losspool.sampler import SamplerConfig
from losspool.solver import PoolingConfig
from losspool.trainer import (
    LOSS_MODES,
    SyntheticDataset,
    SyntheticDatasetSpec,
    TrainConfig,
    TrainingDivergence,
    _clipped_window,
    check_crop_pooling,
    class_pixel_counts,
    evaluate,
    generate_dataset,
    inverse_median_frequency_weights,
    load_model,
    poly_lr,
    save_model,
    train,
)


def small_spec(**overrides) -> SyntheticDatasetSpec:
    base = {
        "classes": 3,
        "image_size": (16, 16),
        "images": 10,
        "class_pixel_fractions": (0.80, 0.15, 0.05),
        "feature_noise": 0.3,
        "seed": 7,
    }
    base.update(overrides)
    return SyntheticDatasetSpec(**base)


class TestDatasetSpec:
    def test_defaults_validate(self):
        spec = SyntheticDatasetSpec()
        assert spec.classes == 3
        assert sum(spec.class_pixel_fractions) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"classes": 1, "class_pixel_fractions": (1.0,)},
            {"images": 1},
            {"image_size": (0, 5)},
            {"class_pixel_fractions": (0.5, 0.5)},
            {"class_pixel_fractions": (0.7, 0.3, 0.0)},
            {"class_pixel_fractions": (0.5, 0.3, 0.1)},
            {"feature_noise": -0.1},
            {"shape_kind": "hexagon"},
        ],
        ids=[
            "one-class",
            "one-image",
            "zero-height",
            "fraction-count",
            "zero-fraction",
            "fractions-sum",
            "negative-noise",
            "unknown-shape",
        ],
    )
    def test_rejects_bad_specs(self, overrides):
        base = SyntheticDatasetSpec().to_dict()
        base.update(overrides)
        with pytest.raises(ValueError):
            SyntheticDatasetSpec.from_dict(base)

    def test_dict_round_trip(self):
        spec = small_spec(shape_kind="stripe")
        assert SyntheticDatasetSpec.from_dict(spec.to_dict()) == spec


class TestClassPixelCounts:
    def test_largest_remainder_on_default_spec(self):
        # 576 pixels at (0.90, 0.09, 0.01): floors are (518, 51, 5) and the
        # two leftover pixels go to the largest remainders (0.84 and 0.76).
        counts = class_pixel_counts(SyntheticDatasetSpec())
        np.testing.assert_array_equal(counts, [518, 52, 6])

    def test_counts_sum_to_image_size(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            raw = rng.uniform(0.05, 1.0, size=k)
            fractions = tuple(raw / raw.sum())
            h, w = int(rng.integers(4, 30)), int(rng.integers(4, 30))
            spec = SyntheticDatasetSpec(
                classes=k,
                image_size=(h, w),
                class_pixel_fractions=fractions,
                images=2,
            )
            counts = class_pixel_counts(spec)
            assert counts.sum() == h * w
            np.testing.assert_allclose(
                counts / (h * w), fractions, atol=1.0 / (h * w) + 1e-12
            )

    def test_rejects_starved_class(self):
        spec = SyntheticDatasetSpec(
            class_pixel_fractions=(0.999, 0.0005, 0.0005)
        )
        with pytest.raises(ValueError, match="class 1"):
            class_pixel_counts(spec)


class TestGenerateDataset:
    def test_shapes_and_split(self):
        dataset = generate_dataset(SyntheticDatasetSpec())
        assert dataset.features.shape == (50, 24, 24, 3)
        assert dataset.labels.shape == (50, 24, 24)
        assert dataset.labels.dtype == np.int64
        np.testing.assert_array_equal(dataset.train_indices, np.arange(40))
        np.testing.assert_array_equal(dataset.eval_indices, np.arange(40, 50))

    def test_split_keeps_at_least_one_eval_image(self):
        dataset = generate_dataset(small_spec(images=3))
        assert dataset.eval_indices.size == 1
        assert dataset.train_indices.size == 2

    def test_every_image_has_exact_class_counts(self):
        spec = small_spec()
        dataset = generate_dataset(spec)
        expected = class_pixel_counts(spec)
        for img in dataset.labels:
            np.testing.assert_array_equal(
                np.bincount(img.reshape(-1), minlength=spec.classes), expected
            )

    def test_zero_noise_features_are_exact_indicators(self):
        spec = small_spec(feature_noise=0.0)
        dataset = generate_dataset(spec)
        eye = np.eye(spec.classes)
        np.testing.assert_array_equal(dataset.features, eye[dataset.labels])

    def test_bit_identical_regeneration(self):
        a = generate_dataset(small_spec())
        b = generate_dataset(small_spec())
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = generate_dataset(small_spec(seed=1))
        b = generate_dataset(small_spec(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_stripe_layout_is_banded(self):
        spec = small_spec(shape_kind="stripe", feature_noise=0.0)
        dataset = generate_dataset(spec)
        flat = dataset.labels[0].reshape(-1)
        assert (np.diff(flat) >= 0).all()  # classes appear as sorted bands

    def test_blob_minorities_are_contiguous_runs(self):
        spec = small_spec()
        dataset = generate_dataset(spec)
        for img in dataset.labels:
            flat = img.reshape(-1)
            for minority in (1, 2):
                spots = np.flatnonzero(flat == minority)
                assert np.all(np.diff(spots) == 1), f"class {minority} fragmented"


class TestTrainConfig:
    def test_dict_round_trip(self):
        config = TrainConfig(
            loss_mode="lmp",
            pooling=PoolingConfig(p=2.0, m=5.0),
            sampler=SamplerConfig(blend=0.25, epsilon=0.02, seed=3),
            iterations=12,
        )
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_dict_round_trip_without_sampler(self):
        config = TrainConfig()
        back = TrainConfig.from_dict(config.to_dict())
        assert back == config
        assert back.sampler is None

    def test_empty_dict_gives_the_defaults(self):
        assert TrainConfig.from_dict({}) == TrainConfig()

    def test_partial_pooling_dicts_keep_the_other_defaults(self):
        assert TrainConfig.from_dict(
            {"pooling": {"p": 2.0}}
        ).pooling == PoolingConfig(p=2.0, m_fraction=0.25)
        assert TrainConfig.from_dict(
            {"pooling": {"m": 100}}
        ).pooling == PoolingConfig(p=1.3, m=100)

    def test_partial_sampler_dict_keeps_the_other_defaults(self):
        config = TrainConfig.from_dict({"sampler": {"blend": 0.5}})
        assert config.sampler == SamplerConfig(blend=0.5, epsilon=0.01, seed=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"loss_mode": "focal"},
            {"lr0": 0.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"poly_power": 0.0},
            {"iterations": 0},
            {"batch_crops": 0},
            {"crop_size": (0, 4)},
            {"weight_decay": -1e-4},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)


class TestPolyLr:
    def test_endpoints(self):
        assert poly_lr(0.5, 0.9, 0, 100) == 0.5
        assert poly_lr(0.5, 0.9, 100, 100) == 0.0

    def test_linear_when_power_is_one(self):
        assert poly_lr(2.0, 1.0, 25, 100) == pytest.approx(1.5, rel=1e-15)

    def test_monotone_decay(self):
        values = [poly_lr(1.0, 0.9, it, 50) for it in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestInverseMedianFrequencyWeights:
    def test_frozen_example(self):
        labels = np.array([0] * 6 + [1] * 3 + [2] * 1)
        weights = inverse_median_frequency_weights(labels, 3)
        np.testing.assert_allclose(weights, [0.5, 1.0, 3.0], rtol=1e-15)

    def test_absent_class_gets_zero(self):
        labels = np.array([0] * 5 + [1] * 5)
        weights = inverse_median_frequency_weights(labels, 3)
        np.testing.assert_allclose(weights, [1.0, 1.0, 0.0], rtol=1e-15)


class TestClippedWindow:
    @pytest.mark.parametrize(
        "center,size,limit,expected",
        [
            (12, 12, 24, (6, 18)),
            (0, 12, 24, (0, 12)),
            (23, 12, 24, (17, 24)),
            (5, 100, 24, (0, 24)),
        ],
    )
    def test_windows_stay_in_bounds(self, center, size, limit, expected):
        assert _clipped_window(center, size, limit) == expected


class TestCheckCropPooling:
    @pytest.mark.parametrize(
        "image_size,crop_size",
        [((24, 24), (12, 12)), ((16, 20), (5, 8)), ((6, 6), (12, 12)), ((1, 9), (1, 1))],
    )
    def test_bound_is_the_smallest_window(self, image_size, crop_size):
        (h, w), (ch, cw) = image_size, crop_size
        smallest = min(
            (r1 - r0) * (c1 - c0)
            for r0, r1 in (_clipped_window(r, ch, h) for r in range(h))
            for c0, c1 in (_clipped_window(c, cw, w) for c in range(w))
        )
        check_crop_pooling(image_size, crop_size, PoolingConfig(p=1.3, m=smallest))
        with pytest.raises(ValueError, match="smallest crop"):
            check_crop_pooling(
                image_size, crop_size, PoolingConfig(p=1.3, m=smallest + 0.5)
            )

    def test_fractional_m_always_fits(self):
        check_crop_pooling((24, 24), (12, 12), PoolingConfig(p=1.3, m_fraction=1.0))

    def test_train_rejects_m_beyond_the_smallest_crop(self):
        dataset = generate_dataset(small_spec())  # 16x16 images: 7x7 corner crops
        config = TrainConfig(
            loss_mode="lmp", pooling=PoolingConfig(p=1.3, m=50.0), iterations=1
        )
        with pytest.raises(ValueError, match="smallest crop"):
            train(dataset, config)


class TestTrain:
    def test_separable_task_reaches_near_perfect_iou(self):
        dataset = generate_dataset(SyntheticDatasetSpec(feature_noise=0.0))
        config = TrainConfig(loss_mode="uniform", iterations=300, seed=0)
        report = train(dataset, config)
        assert report.mean_iou >= 0.99
        assert all(iou >= 0.95 for iou in report.per_class_iou)

    def test_full_support_pooling_equals_uniform_training(self):
        # With m at 100% of the pixels the pooled weights are exactly the
        # uniform ones, so both modes must follow the same trajectory.
        dataset = generate_dataset(small_spec())
        base = dict(iterations=25, seed=3)
        uniform = train(dataset, TrainConfig(loss_mode="uniform", **base))
        pooled = train(
            dataset,
            TrainConfig(
                loss_mode="lmp",
                pooling=PoolingConfig(p=1.3, m_fraction=1.0),
                **base,
            ),
        )
        np.testing.assert_array_equal(uniform.loss_history, pooled.loss_history)
        np.testing.assert_array_equal(uniform.model_weights, pooled.model_weights)

    @pytest.mark.parametrize("mode", ["uniform", "inverse_median_freq", "lmp"])
    def test_modes_run_and_report(self, mode):
        dataset = generate_dataset(small_spec())
        report = train(dataset, TrainConfig(loss_mode=mode, iterations=10, seed=1))
        assert len(report.loss_history) == 10
        assert len(report.per_class_iou) == 3
        assert all(np.isfinite(report.loss_history))
        assert 0.0 <= report.mean_iou <= 1.0
        assert report.config_echo["loss_mode"] == mode
        assert report.model_weights.shape == (4, 3)

    def test_training_is_deterministic(self):
        dataset = generate_dataset(small_spec())
        config = TrainConfig(loss_mode="lmp", iterations=15, seed=9)
        a = train(dataset, config)
        b = train(dataset, config)
        assert a.loss_history == b.loss_history
        np.testing.assert_array_equal(a.model_weights, b.model_weights)

    def test_sampler_driven_training_is_deterministic(self):
        dataset = generate_dataset(small_spec())
        config = TrainConfig(
            loss_mode="lmp",
            iterations=15,
            seed=4,
            sampler=SamplerConfig(blend=0.5, epsilon=0.01),
        )
        a = train(dataset, config)
        b = train(dataset, config)
        assert a.loss_history == b.loss_history
        assert a.loss_history != train(
            dataset, TrainConfig(loss_mode="lmp", iterations=15, seed=4)
        ).loss_history  # the sampler actually changes the crop stream

    def test_pooled_crop_loss_upper_bounds_its_mean(self, monkeypatch):
        # Record every pooled solve the trainer performs and check each
        # against the plain mean of the same crop's pixel losses.
        from losspool import trainer as trainer_module

        records = []
        real_solve = trainer_module.solve_pool

        def recording(losses, config):
            outcome = real_solve(losses, config)
            records.append((outcome.pooled_loss, float(np.mean(losses))))
            return outcome

        monkeypatch.setattr(trainer_module, "solve_pool", recording)
        dataset = generate_dataset(small_spec())
        train(dataset, TrainConfig(loss_mode="lmp", iterations=15, seed=2))
        assert len(records) == 15 * 8  # every crop of every iteration
        assert all(pooled >= mean for pooled, mean in records)

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_loss_decreases_on_separable_data(self, mode):
        dataset = generate_dataset(small_spec(feature_noise=0.0))
        report = train(dataset, TrainConfig(loss_mode=mode, iterations=40, seed=0))
        assert report.loss_history[-1] < report.loss_history[0]

    def test_divergence_raises(self):
        dataset = generate_dataset(small_spec())
        config = TrainConfig(loss_mode="uniform", lr0=1e200, iterations=5)
        with pytest.raises(TrainingDivergence):
            train(dataset, config)

    def test_empty_split_rejected(self):
        dataset = generate_dataset(small_spec())
        broken = SyntheticDataset(
            features=dataset.features,
            labels=dataset.labels,
            train_indices=dataset.train_indices,
            eval_indices=np.array([], dtype=np.intp),
            spec=dataset.spec,
        )
        with pytest.raises(ValueError, match="split"):
            train(broken, TrainConfig(iterations=1))


class TestEvaluate:
    def test_frozen_confusion_example(self):
        # Weights force every prediction to class 0; the single class-1
        # pixel becomes a false negative: iou = [3/4, 0], mean = 0.375.
        spec = SyntheticDatasetSpec(
            classes=2,
            image_size=(2, 2),
            images=2,
            class_pixel_fractions=(0.75, 0.25),
            feature_noise=0.0,
            seed=0,
        )
        dataset = generate_dataset(spec)
        weights = np.zeros((3, 2))
        weights[-1, 0] = 10.0  # bias row
        per_class, mean_iou = evaluate(weights, dataset, [0])
        np.testing.assert_allclose(per_class, [0.75, 0.0], rtol=1e-15)
        assert mean_iou == pytest.approx(0.375, rel=1e-15)

    def test_perfect_weights_give_unit_iou(self):
        spec = small_spec(feature_noise=0.0)
        dataset = generate_dataset(spec)
        weights = np.zeros((4, 3))
        weights[:3, :3] = np.eye(3)  # logits reproduce the indicator
        per_class, mean_iou = evaluate(weights, dataset, dataset.eval_indices)
        np.testing.assert_array_equal(per_class, np.ones(3))
        assert mean_iou == 1.0

    def test_uncovered_class_excluded_from_mean(self):
        spec = SyntheticDatasetSpec(
            classes=3,
            image_size=(2, 2),
            images=2,
            class_pixel_fractions=(0.5, 0.25, 0.25),
            feature_noise=0.0,
            seed=0,
        )
        dataset = generate_dataset(spec)
        labels = dataset.labels.copy()
        labels[labels == 2] = 1  # class 2 never labelled
        doctored = SyntheticDataset(
            features=dataset.features,
            labels=labels,
            train_indices=dataset.train_indices,
            eval_indices=dataset.eval_indices,
            spec=spec,
        )
        weights = np.zeros((4, 3))
        weights[-1, 0] = 10.0  # predict class 0 everywhere
        per_class, mean_iou = evaluate(weights, doctored, [0])
        assert per_class[2] == 1.0  # empty union reported as 1
        assert mean_iou == pytest.approx((per_class[0] + per_class[1]) / 2)

    def test_empty_split_raises(self):
        dataset = generate_dataset(small_spec())
        with pytest.raises(ValueError, match="empty split"):
            evaluate(np.zeros((4, 3)), dataset, [])


class TestTrainReport:
    def test_json_round_trip_drops_model_weights(self):
        dataset = generate_dataset(small_spec())
        report = train(dataset, TrainConfig(iterations=5, seed=2))
        doc = json.loads(json.dumps(report.to_json()))
        assert "model_weights" not in doc
        assert doc["per_class_iou"] == report.per_class_iou
        assert doc["mean_iou"] == report.mean_iou
        assert doc["loss_history"] == report.loss_history
        assert doc["config_echo"] == report.config_echo


class TestModelSerialisation:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(4, 3))
        path = tmp_path / "model.bin"
        save_model(path, weights, seed=5, config_echo={"loss_mode": "lmp"})
        loaded, header = load_model(path)
        np.testing.assert_array_equal(loaded, weights)
        assert header["shape"] == [4, 3]
        assert header["seed"] == 5

    def test_config_hash_tracks_config(self, tmp_path):
        weights = np.zeros((2, 2))
        save_model(tmp_path / "a.bin", weights, 0, {"loss_mode": "lmp"})
        save_model(tmp_path / "b.bin", weights, 0, {"loss_mode": "uniform"})
        save_model(tmp_path / "c.bin", weights, 0, {"loss_mode": "lmp"})
        _, ha = load_model(tmp_path / "a.bin")
        _, hb = load_model(tmp_path / "b.bin")
        _, hc = load_model(tmp_path / "c.bin")
        assert ha["config_hash"] != hb["config_hash"]
        assert ha["config_hash"] == hc["config_hash"]

    def test_loaded_weights_are_writable(self, tmp_path):
        save_model(tmp_path / "m.bin", np.ones((2, 2)), 0, {})
        loaded, _ = load_model(tmp_path / "m.bin")
        loaded[0, 0] = 7.0  # frombuffer views are read-only; we expect a copy
