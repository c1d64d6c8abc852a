"""Tests for IoU tracking and complementary crop sampling.

The frozen distributions are hand computed.  With per-class IoU
[1, 0.5, 0.25] and epsilon 0.01 the inverse weights are
[0.01, 0.51, 0.76] / 1.28 = [0.0078125, 0.3984375, 0.59375] (exact in
binary: every value is a ratio of small integers times powers of two).
"""

import numpy as np
import pytest

from losspool.sampler import (
    ClassStats,
    CropAnchor,
    CropIndex,
    SamplerConfig,
    class_distribution,
    pick_crop,
    sample_class,
    update_stats,
)


def stats_with_known_iou() -> ClassStats:
    """Confusion counts chosen so iou is exactly [1.0, 0.5, 0.25].

    Class 0 is perfect; classes 1 and 2 only confuse each other, so the
    system is closed and each IoU can be read off the row/column sums:
    iou1 = 3/(3+2+1), iou2 = 1/(1+2+1).
    """
    stats = ClassStats(num_classes=3)
    labels = [0] * 4 + [1] * 5 + [2] * 2
    preds = [0] * 4 + [1, 1, 1, 2, 2] + [1, 2]
    update_stats(stats, preds, labels)
    return stats


class TestClassStats:
    def test_known_confusion_gives_frozen_iou(self):
        stats = stats_with_known_iou()
        np.testing.assert_array_equal(
            stats.confusion, [[4, 0, 0], [0, 3, 2], [0, 1, 1]]
        )
        np.testing.assert_array_equal(stats.iou, [1.0, 0.5, 0.25])
        assert stats.present.all()

    def test_unseen_class_counts_as_perfect(self):
        stats = ClassStats(num_classes=3)
        update_stats(stats, [0, 1], [0, 1])
        np.testing.assert_array_equal(stats.iou, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(stats.present, [True, True, False])

    def test_class_seen_only_as_prediction_is_absent(self):
        stats = ClassStats(num_classes=3)
        update_stats(stats, [0, 2, 1, 1], [0, 0, 1, 1])
        assert stats.iou[2] == 0.0  # pure false positives
        np.testing.assert_array_equal(stats.present, [True, True, False])

    @pytest.mark.parametrize("num_classes", [0, 1])
    def test_rejects_degenerate_class_count(self, num_classes):
        with pytest.raises(ValueError, match="at least 2 classes"):
            ClassStats(num_classes=num_classes)

    @pytest.mark.parametrize("decay", [0.0, -0.1, 1.5])
    def test_rejects_bad_decay(self, decay):
        with pytest.raises(ValueError, match="decay"):
            ClassStats(num_classes=2, decay=decay)


class TestUpdateStats:
    def test_decay_halves_old_counts(self):
        stats = ClassStats(num_classes=2, decay=0.5)
        update_stats(stats, [1, 1], [0, 0])  # both wrong
        np.testing.assert_array_equal(stats.confusion, [[0, 2], [0, 0]])
        update_stats(stats, [0], [0])
        np.testing.assert_array_equal(stats.confusion, [[1, 1], [0, 0]])
        assert stats.iou_history == [[0.0, 0.0], [0.5, 0.0]]

    def test_masked_update_only_decays(self):
        stats = ClassStats(num_classes=2, decay=0.5)
        update_stats(stats, [0, 1], [0, 1])
        update_stats(stats, [1, 0], [0, 1], valid=[False, False])
        np.testing.assert_array_equal(stats.confusion, [[0.5, 0], [0, 0.5]])

    def test_returns_the_same_object(self):
        stats = ClassStats(num_classes=2)
        assert update_stats(stats, [0], [0]) is stats

    def test_accepts_2d_inputs(self):
        stats = ClassStats(num_classes=2)
        update_stats(stats, np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int))
        assert stats.confusion[0, 0] == 6.0

    def test_rejects_length_mismatch(self):
        stats = ClassStats(num_classes=2)
        with pytest.raises(ValueError, match="equal length"):
            update_stats(stats, [0, 1], [0])

    @pytest.mark.parametrize("preds,labels", [([0, 5], [0, 0]), ([0, 0], [-1, 0])])
    def test_rejects_out_of_range_ids(self, preds, labels):
        stats = ClassStats(num_classes=3)
        with pytest.raises(ValueError, match="class ids"):
            update_stats(stats, preds, labels)

    def test_out_of_range_ok_when_masked(self):
        stats = ClassStats(num_classes=2)
        update_stats(stats, [0, 9], [0, -3], valid=[True, False])
        assert stats.confusion[0, 0] == 1.0


class TestClassDistribution:
    def test_frozen_inverse_distribution(self):
        stats = stats_with_known_iou()
        dist = class_distribution(stats, SamplerConfig(blend=0.0, epsilon=0.01))
        np.testing.assert_array_equal(dist, [0.0078125, 0.3984375, 0.59375])

    def test_full_blend_is_exactly_uniform(self):
        stats = stats_with_known_iou()
        dist = class_distribution(stats, SamplerConfig(blend=1.0))
        np.testing.assert_array_equal(dist, np.ones(3) / 3)

    def test_blend_is_a_convex_combination(self):
        stats = stats_with_known_iou()
        lo = class_distribution(stats, SamplerConfig(blend=0.0))
        hi = class_distribution(stats, SamplerConfig(blend=1.0))
        mid = class_distribution(stats, SamplerConfig(blend=0.25))
        np.testing.assert_allclose(mid, 0.25 * hi + 0.75 * lo, rtol=1e-15)

    def test_absent_class_gets_zero_mass(self):
        stats = ClassStats(num_classes=3)
        update_stats(stats, [0, 2, 1, 1], [0, 0, 1, 1])
        dist = class_distribution(stats, SamplerConfig(blend=0.5, epsilon=0.01))
        # present classes have iou [0.5, 1.0]; inverse = [0.51, 0.01]/0.52
        assert dist[2] == 0.0
        assert dist[0] == pytest.approx(0.7403846153846154, rel=1e-15)
        assert dist.sum() == pytest.approx(1.0, rel=1e-15)

    def test_fresh_stats_fall_back_to_all_classes(self):
        stats = ClassStats(num_classes=4)
        dist = class_distribution(stats, SamplerConfig(blend=0.0))
        np.testing.assert_allclose(dist, np.full(4, 0.25), rtol=1e-15)

    def test_worst_class_gets_most_mass_below_full_blend(self):
        stats = stats_with_known_iou()
        for blend in (0.0, 0.3, 0.9):
            dist = class_distribution(stats, SamplerConfig(blend=blend))
            assert dist.argmax() == 2  # lowest iou

    def test_lowering_a_class_iou_raises_its_probability(self):
        # Two four-class systems differing only in class 0's iou
        # (0.75 vs 0.25); classes 1-3 keep iou (0.5, 0.25, 0.5) in both.
        # Class 0 confuses only with class 3, whose counts are chosen so
        # its own iou stays at 0.5 either way.
        base = ClassStats(num_classes=4)
        update_stats(
            base,
            [0, 0, 0, 3] + [1, 1, 1, 2, 2] + [1, 2] + [3],
            [0] * 4 + [1] * 5 + [2] * 2 + [3],
        )
        worse = ClassStats(num_classes=4)
        update_stats(
            worse,
            [0, 3, 3, 3] + [1, 1, 1, 2, 2] + [1, 2] + [3, 3, 3],
            [0] * 4 + [1] * 5 + [2] * 2 + [3] * 3,
        )
        np.testing.assert_array_equal(base.iou, [0.75, 0.5, 0.25, 0.5])
        np.testing.assert_array_equal(worse.iou, [0.25, 0.5, 0.25, 0.5])
        for blend in (0.0, 0.5, 0.9):
            config = SamplerConfig(blend=blend)
            assert (
                class_distribution(worse, config)[0]
                > class_distribution(base, config)[0]
            )

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            stats = ClassStats(num_classes=int(rng.integers(2, 8)))
            labels = rng.integers(0, stats.num_classes, size=60)
            preds = rng.integers(0, stats.num_classes, size=60)
            update_stats(stats, preds, labels)
            config = SamplerConfig(blend=float(rng.uniform()), epsilon=0.01)
            assert class_distribution(stats, config).sum() == pytest.approx(1.0)


class TestSamplerConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"blend": -0.1}, {"blend": 1.1}, {"epsilon": 0.0}, {"epsilon": -1.0}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestSampleClass:
    def test_empirical_frequencies_match_distribution(self):
        stats = stats_with_known_iou()
        config = SamplerConfig(blend=0.0, epsilon=0.01)
        expected = np.array([0.0078125, 0.3984375, 0.59375])

        rng = np.random.default_rng(42)
        draws = 100_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[sample_class(stats, config, rng)] += 1

        sigma = np.sqrt(draws * expected * (1.0 - expected))
        np.testing.assert_array_less(np.abs(counts - draws * expected), 3.0 * sigma)

    def test_deterministic_under_seed(self):
        stats = stats_with_known_iou()
        config = SamplerConfig(blend=0.5)
        first = [sample_class(stats, config, np.random.default_rng(7)) for _ in range(1)]
        runs = [
            [sample_class(stats, config, rng) for _ in range(30)]
            for rng in (np.random.default_rng(7), np.random.default_rng(7))
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == first[0]


class TestCropIndex:
    def test_from_labels_collects_every_pixel(self):
        labels = np.array([[[0, 1], [2, 2]], [[1, 1], [0, 2]]])
        index = CropIndex.from_labels(labels)
        assert index.num_images == 2
        assert index.image_shape == (2, 2)
        assert sorted(index.locations) == [0, 1, 2]
        np.testing.assert_array_equal(
            index.locations[0], [[0, 0, 0], [1, 1, 0]]
        )
        assert sum(len(v) for v in index.locations.values()) == labels.size

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match=r"\[images, h, w\]"):
            CropIndex.from_labels(np.zeros((4, 4), dtype=int))

    def test_singleton_class_is_deterministic(self):
        labels = np.zeros((1, 3, 3), dtype=int)
        labels[0, 2, 1] = 1
        index = CropIndex.from_labels(labels)
        anchor = pick_crop(index, 1, np.random.default_rng(0))
        assert anchor == CropAnchor(image=0, row=2, col=1, fallback=False)

    def test_missing_class_falls_back_in_bounds(self):
        labels = np.zeros((3, 4, 5), dtype=int)
        index = CropIndex.from_labels(labels)
        rng = np.random.default_rng(1)
        for _ in range(50):
            anchor = pick_crop(index, 7, rng)
            assert anchor.fallback
            assert 0 <= anchor.image < 3
            assert 0 <= anchor.row < 4
            assert 0 <= anchor.col < 5

    def test_anchors_always_land_on_the_class(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=(4, 6, 6))
        index = CropIndex.from_labels(labels)
        for class_id in range(3):
            for _ in range(25):
                anchor = pick_crop(index, class_id, rng)
                assert not anchor.fallback
                assert labels[anchor.image, anchor.row, anchor.col] == class_id

    def test_pick_crop_deterministic_under_seed(self):
        labels = np.random.default_rng(3).integers(0, 2, size=(2, 5, 5))
        index = CropIndex.from_labels(labels)
        a = [pick_crop(index, 1, np.random.default_rng(11)) for _ in range(10)]
        b = [pick_crop(index, 1, np.random.default_rng(11)) for _ in range(10)]
        assert a == b
