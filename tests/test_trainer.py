"""Tests for the synthetic segmentation task and the crop trainer.

The slow end: a zero-noise run must reach essentially perfect IoU (the
task is linearly separable), and pooling with m at 100% of the pixels must
reproduce plain mean-loss training exactly, step for step.
"""

import ast
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from helpers import train_per_crop

from losspool.pixel_losses import SegBatch, softmax_xent
from losspool.sampler import SamplerConfig
from losspool.solver import PoolingConfig, solve_pool
from losspool.trainer import (
    LOSS_MODES,
    SyntheticDataset,
    SyntheticDatasetSpec,
    TrainConfig,
    TrainingDivergence,
    _clipped_window,
    _with_bias,
    check_crop_pooling,
    class_pixel_counts,
    evaluate,
    generate_dataset,
    inverse_median_frequency_weights,
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
        base = asdict(SyntheticDatasetSpec())
        base.update(overrides)
        with pytest.raises(ValueError):
            SyntheticDatasetSpec.from_dict(base)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"feature_noise": math.inf},
            {"feature_noise": math.nan},
            {"class_pixel_fractions": (math.nan, 0.5, 0.5)},
            {"class_pixel_fractions": (math.inf, 0.5, 0.5)},
        ],
        ids=["inf-noise", "nan-noise", "nan-fraction", "inf-fraction"],
    )
    def test_rejects_non_finite_values(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_tuple_items_cast_like_the_default(self):
        spec = SyntheticDatasetSpec.from_dict({"image_size": [24, 24.0]})
        assert spec.image_size == (24, 24)
        assert all(type(side) is int for side in spec.image_size)
        with pytest.raises(ValueError, match="bad dataset.class_pixel_fractions value"):
            SyntheticDatasetSpec.from_dict({"class_pixel_fractions": [True, 0.5, 0.5]})

    def test_dict_round_trip(self):
        spec = small_spec(shape_kind="stripe")
        assert SyntheticDatasetSpec.from_dict(asdict(spec)) == spec

    def test_partial_dict_keeps_the_other_defaults(self):
        assert SyntheticDatasetSpec.from_dict({}) == SyntheticDatasetSpec()
        assert SyntheticDatasetSpec.from_dict(
            {"images": 4}
        ) == SyntheticDatasetSpec(images=4)


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
        with pytest.raises(ValueError, match="class 1"):
            SyntheticDatasetSpec(class_pixel_fractions=(0.999, 0.0005, 0.0005))


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
            sampler=SamplerConfig(blend=0.25, epsilon=0.02),
            iterations=12,
        )
        assert TrainConfig.from_dict(asdict(config)) == config

    def test_dict_round_trip_without_sampler(self):
        config = TrainConfig()
        back = TrainConfig.from_dict(asdict(config))
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

    @pytest.mark.parametrize(
        "data,key",
        [
            ({"lr0": True}, "train.lr0"),
            ({"momentum": False}, "train.momentum"),
            ({"pooling": {"p": True}}, "train.pooling.p"),
            ({"pooling": {"m": True}}, "train.pooling.m"),
            ({"pooling": {"m_fraction": True}}, "train.pooling.m_fraction"),
            ({"sampler": {"epsilon": True}}, "train.sampler.epsilon"),
        ],
    )
    def test_float_fields_reject_bools(self, data, key):
        with pytest.raises(ValueError, match=f"bad {key} value True|bad {key} value False"):
            TrainConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data,key",
        [
            ({"lr0": math.nan}, "train.lr0"),
            ({"weight_decay": math.nan}, "train.weight_decay"),
            ({"pooling": {"p": math.nan}}, "train.pooling.p"),
            ({"sampler": {"epsilon": math.nan}}, "train.sampler.epsilon"),
        ],
    )
    def test_float_fields_reject_nan(self, data, key):
        with pytest.raises(ValueError, match=f"bad {key} value nan"):
            TrainConfig.from_dict(data)

    def test_infinite_p_stays_valid(self):
        assert TrainConfig.from_dict({"pooling": {"p": math.inf}}).pooling.p == math.inf

    def test_partial_sampler_dict_keeps_the_other_defaults(self):
        config = TrainConfig.from_dict({"sampler": {"blend": 0.5}})
        assert config.sampler == SamplerConfig(blend=0.5, epsilon=0.01)

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
            {"lr0": math.inf},
            {"weight_decay": math.inf},
            {"weight_decay": math.nan},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)


def bench_demo_config() -> dict:
    """``DEMO_CONFIG`` of ``bench/workloads.py``, read without importing the bench."""
    source = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    (value,) = [
        node.value
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "DEMO_CONFIG"
    ]
    return ast.literal_eval(value)


READ_TRAIN_CONFIGS = [
    TrainConfig(),
    TrainConfig(
        loss_mode="lmp",
        pooling=PoolingConfig(p=2.0, m=5.0),
        sampler=SamplerConfig(blend=0.25, epsilon=0.02),
        iterations=12,
    ),
    TrainConfig(
        pooling=PoolingConfig(p=math.inf, m_fraction=1.0),
        crop_size=(5, 7),
        sampler=SamplerConfig(),
        weight_decay=0.0,
    ),
]

READ_SPECS = [
    SyntheticDatasetSpec(),
    small_spec(shape_kind="stripe"),
    SyntheticDatasetSpec(classes=2, class_pixel_fractions=(0.5, 0.5), image_size=(3, 8)),
]


class TestConfigReader:
    """One reader serves ``dataset``, ``train``, ``train.pooling`` and ``train.sampler``.

    Results are compared by ``repr`` as well, so a float field read as an
    int shows: ``PoolingConfig(m=100) == PoolingConfig(m=100.0)``.
    """

    @pytest.mark.parametrize(
        "data,expected",
        [(asdict(config), config) for config in READ_TRAIN_CONFIGS]
        + [
            ({}, TrainConfig()),
            ({"pooling": {"p": 2}}, TrainConfig(pooling=PoolingConfig(p=2.0, m_fraction=0.25))),
            ({"pooling": {"m": 100}}, TrainConfig(pooling=PoolingConfig(p=1.3, m=100.0))),
            ({"pooling": {"p": 2, "m": 30}}, TrainConfig(pooling=PoolingConfig(p=2.0, m=30.0))),
            ({"pooling": {"m": "25"}}, TrainConfig(pooling=PoolingConfig(p=1.3, m=25.0))),
            ({"pooling": {"m": None}}, TrainConfig()),
            ({"pooling": None}, TrainConfig()),
            ({"sampler": None}, TrainConfig()),
            ({"sampler": {}}, TrainConfig(sampler=SamplerConfig())),
            (bench_demo_config()["train"], TrainConfig(sampler=SamplerConfig(0.5, 0.01))),
        ],
    )
    def test_train_configs_read_as_expected(self, data, expected):
        result = TrainConfig.from_dict(data)
        assert result == expected
        assert repr(result) == repr(expected)

    @pytest.mark.parametrize(
        "data,expected",
        [(asdict(spec), spec) for spec in READ_SPECS]
        + [
            ({}, SyntheticDatasetSpec()),
            ({"images": 4}, SyntheticDatasetSpec(images=4)),
            ({"image_size": [24, 24.0]}, SyntheticDatasetSpec()),
        ],
    )
    def test_specs_read_as_expected(self, data, expected):
        result = SyntheticDatasetSpec.from_dict(data)
        assert result == expected
        assert repr(result) == repr(expected)

    @pytest.mark.parametrize(
        "read,data,message",
        [
            (TrainConfig.from_dict, {"pooling": {"m": 25, "m_fraction": 0.5}},
             "exactly one of m and m_fraction"),
            (TrainConfig.from_dict, {"pooling": []}, "train.pooling must be a JSON object"),
            (TrainConfig.from_dict, {"sampler": [["blend", 0.5]]},
             "train.sampler must be a JSON object"),
            (TrainConfig.from_dict, {"pooling": {"p": None}}, "bad train.pooling.p value None"),
            (SyntheticDatasetSpec.from_dict, [["images", 4]], "dataset must be a JSON object"),
            # A tuple field takes an array, not a string or object to iterate.
            (TrainConfig.from_dict, {"crop_size": "12"},
             "bad train.crop_size value '12': expected an array, got str"),
            (TrainConfig.from_dict, {"crop_size": {"1": 0, "2": 0}},
             "bad train.crop_size value .*: expected an array, got dict"),
            (TrainConfig.from_dict, {"crop_size": 12}, "bad train.crop_size value 12"),
            (SyntheticDatasetSpec.from_dict, {"image_size": "99"},
             "bad dataset.image_size value '99'"),
            (SyntheticDatasetSpec.from_dict, {"class_pixel_fractions": "1"},
             "bad dataset.class_pixel_fractions value '1'"),
        ],
        ids=["m-and-fraction", "pooling-list", "sampler-pairs", "null-p", "dataset-pairs",
             "crop-string", "crop-object", "crop-number", "image-string", "fractions-string"],
    )
    def test_faults_raise_value_errors_naming_the_key(self, read, data, message):
        with pytest.raises(ValueError, match=message):
            read(data)


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
        # Record every crop of every segmented solve the trainer performs and
        # check the pooled value of its own solve against the plain mean of
        # its pixel losses.
        from losspool import trainer as trainer_module

        records = []
        real_solve = trainer_module.solve_pool

        def recording(losses, config, sizes=None):
            ends = np.cumsum(sizes)
            for start, end in zip(ends - sizes, ends):
                crop = losses[start:end]
                records.append((real_solve(crop, config).pooled_loss, float(np.mean(crop))))
            return real_solve(losses, config, sizes=sizes)

        monkeypatch.setattr(trainer_module, "solve_pool", recording)
        dataset = generate_dataset(small_spec())
        train(dataset, TrainConfig(loss_mode="lmp", iterations=15, seed=2))
        assert len(records) == 15 * 8  # every crop of every iteration
        assert all(pooled >= mean for pooled, mean in records)

    @pytest.mark.parametrize("sampler", [None, SamplerConfig()], ids=["uniform-draws", "sampler"])
    def test_lmp_loss_is_the_mean_pooled_value(self, monkeypatch, sampler):
        """Each step's loss is the crops' weighted sums, which meet the
        solver's pooled values within 1e-15 relative (about 6e-16 measured)."""
        from losspool import trainer as trainer_module

        pooled = []
        real_solve = trainer_module.solve_pool

        def recording(losses, config, sizes=None):
            ends = np.cumsum(sizes)
            crops = [real_solve(losses[a:b], config).pooled_loss for a, b in zip(ends - sizes, ends)]
            pooled.append(sum(crops) / len(sizes))
            return real_solve(losses, config, sizes=sizes)

        monkeypatch.setattr(trainer_module, "solve_pool", recording)
        dataset = generate_dataset(SyntheticDatasetSpec(seed=101))
        for seed in (1, 2, 3):
            pooled.clear()
            report = train(dataset, TrainConfig(loss_mode="lmp", sampler=sampler, seed=seed))
            np.testing.assert_allclose(report.loss_history, pooled, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_loss_decreases_on_separable_data(self, mode):
        dataset = generate_dataset(small_spec(feature_noise=0.0))
        report = train(dataset, TrainConfig(loss_mode=mode, iterations=40, seed=0))
        assert report.loss_history[-1] < report.loss_history[0]

    @pytest.mark.parametrize(
        "spec_overrides,train_overrides",
        [({}, {"lr0": 1e200}), ({"feature_noise": 1e200}, {})],
        ids=["huge-lr", "huge-features"],
    )
    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_divergence_raises(self, spec_overrides, train_overrides, mode):
        # Huge features give finite weights after the first step and logits
        # past the float64 range after it: the step names the iteration.
        dataset = generate_dataset(small_spec(**spec_overrides))
        config = TrainConfig(loss_mode=mode, iterations=5, **train_overrides)
        with pytest.raises(TrainingDivergence, match="at iteration"):
            train(dataset, config)

    def test_pixel_loss_past_float64_raises(self):
        # Finite logits whose spread over the classes overflows: the pixel
        # loss is inf, which the solver would reject as a bad loss vector.
        dataset = generate_dataset(SyntheticDatasetSpec(seed=101, feature_noise=1e154))
        config = TrainConfig(loss_mode="lmp", iterations=5, seed=1)
        with pytest.raises(TrainingDivergence, match="non-finite pixel loss at iteration 2"):
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


class TestBatchedStepParity:
    """One loss, solve and gradient pass per iteration trains bit for bit like
    one per crop: the loss histories and the weights are identical."""

    @staticmethod
    def assert_matches_per_crop(dataset, config):
        report = train(dataset, config)
        history, weights = train_per_crop(dataset, config)
        assert report.loss_history == history
        assert report.model_weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("sampler", [None, SamplerConfig(blend=0.5, epsilon=0.01)])
    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_every_mode_with_and_without_the_sampler(self, mode, sampler):
        # 16x16 images with 12x12 crops: most crops are clipped at the border.
        self.assert_matches_per_crop(
            generate_dataset(small_spec()),
            TrainConfig(loss_mode=mode, iterations=8, seed=5, sampler=sampler),
        )

    @pytest.mark.parametrize(
        "pooling",
        [
            PoolingConfig(p=1.0, m_fraction=0.25),
            PoolingConfig(p=1.3, m_fraction=0.25),
            PoolingConfig(p=float("inf"), m_fraction=0.25),
            PoolingConfig(p=1.3, m_fraction=1.0),
            PoolingConfig(p=2.0, m=5.0),
            PoolingConfig(p=1.0, m=3.5),
        ],
        ids=["p1", "p1.3", "p_inf", "m_all", "m_abs", "p1_m_abs"],
    )
    def test_pooling_settings(self, pooling):
        self.assert_matches_per_crop(
            generate_dataset(small_spec()),
            TrainConfig(loss_mode="lmp", pooling=pooling, iterations=8, seed=6,
                        sampler=SamplerConfig()),
        )

    def test_clipped_crops_of_the_default_task(self):
        # Corner anchors keep as few as 7x7 of the 12x12 pixels.
        config = TrainConfig(loss_mode="lmp", iterations=10, seed=2)
        dataset = generate_dataset(SyntheticDatasetSpec(seed=3))
        self.assert_matches_per_crop(dataset, config)

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_one_crop_per_iteration(self, mode):
        self.assert_matches_per_crop(
            generate_dataset(small_spec()),
            TrainConfig(loss_mode=mode, iterations=10, batch_crops=1, seed=8),
        )


class TestPoolingMechanism:
    """Loss max-pooling moves weight onto the rare class: after training, the
    pooled weights of the training crops give the rarest class a larger
    share of the mass than of the pixels."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_rarest_class_outweighs_its_pixel_share(self, seed):
        spec = SyntheticDatasetSpec(seed=100 + seed)  # the demo's dataset
        dataset = generate_dataset(spec)
        config = TrainConfig(loss_mode="lmp", sampler=SamplerConfig(), seed=seed)
        weights = train(dataset, config).model_weights
        (ch, cw), (h, w) = config.crop_size, spec.image_size
        assert h % ch == 0 and w % cw == 0

        def tiles(a):
            """[images, h, w, ...] as [crops, ch * cw, ...], crop by crop."""
            a = a.reshape(a.shape[0], h // ch, ch, w // cw, cw, *a.shape[3:])
            return a.swapaxes(2, 3).reshape(-1, ch * cw, *a.shape[5:])

        inputs = _with_bias(dataset.features[dataset.train_indices])
        logits = (tiles(inputs) @ weights).reshape(-1, spec.classes)
        labels = tiles(dataset.labels[dataset.train_indices]).reshape(-1)
        losses = softmax_xent(SegBatch(logits=logits, labels=labels)).losses
        sizes = [ch * cw] * (labels.size // (ch * cw))
        pixel_weights = solve_pool(losses, config.pooling, sizes=sizes)

        rare = labels == np.argmin(spec.class_pixel_fractions)
        assert pixel_weights[rare].sum() / pixel_weights.sum() > rare.mean()


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


def read_model(path):
    """Read the documented model layout: one JSON header line, then the
    row-major little-endian float64 weights."""
    header, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(header)
    return np.frombuffer(body, dtype="<f8").reshape(header["shape"]), header


class TestModelSerialisation:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(4, 3))
        path = tmp_path / "model.bin"
        save_model(path, weights, seed=5, config_echo={"loss_mode": "lmp"})
        loaded, header = read_model(path)
        np.testing.assert_array_equal(loaded, weights)
        assert header["shape"] == [4, 3]
        assert header["seed"] == 5

    def test_config_hash_tracks_config(self, tmp_path):
        weights = np.zeros((2, 2))
        save_model(tmp_path / "a.bin", weights, 0, {"loss_mode": "lmp"})
        save_model(tmp_path / "b.bin", weights, 0, {"loss_mode": "uniform"})
        save_model(tmp_path / "c.bin", weights, 0, {"loss_mode": "lmp"})
        _, ha = read_model(tmp_path / "a.bin")
        _, hb = read_model(tmp_path / "b.bin")
        _, hc = read_model(tmp_path / "c.bin")
        assert ha["config_hash"] != hb["config_hash"]
        assert ha["config_hash"] == hc["config_hash"]
