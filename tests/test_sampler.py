"""Tests for IoU tracking and complementary crop sampling.

The frozen distributions are hand computed.  With per-class IoU
[1, 0.5, 0.25] and epsilon 0.01 the inverse weights are
[0.01, 0.51, 0.76] / 1.28 = [0.0078125, 0.3984375, 0.59375] (exact in
binary: every value is a ratio of small integers times powers of two).
"""

import math

import numpy as np
import pytest

from helpers import class_distribution_numpy, confusion_iou_numpy
from losspool.sampler import (
    DECAY,
    ClassStats,
    CropAnchor,
    CropIndex,
    SamplerConfig,
    class_distribution,
    confusion_counts,
    confusion_iou,
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
        assert stats.confusion == [[4, 0, 0], [0, 3, 2], [0, 1, 1]]
        assert stats.iou == [1.0, 0.5, 0.25]
        assert stats.present == [True, True, True]

    def test_state_is_python_numbers(self):
        stats = ClassStats(num_classes=3)
        for _ in range(2):
            assert type(stats.confusion) is list
            assert {type(c) for row in stats.confusion for c in row} == {float}
            assert type(stats.iou) is list and {type(v) for v in stats.iou} == {float}
            assert type(stats.present) is list and {type(v) for v in stats.present} == {bool}
            update_stats(stats, [0, 2, 1, 1], [0, 0, 1, 1])

    def test_unseen_class_counts_as_perfect(self):
        stats = ClassStats(num_classes=3)
        update_stats(stats, [0, 1], [0, 1])
        assert stats.iou == [1.0, 1.0, 1.0]
        assert stats.present == [True, True, False]

    def test_class_seen_only_as_prediction_is_absent(self):
        stats = ClassStats(num_classes=3)
        update_stats(stats, [0, 2, 1, 1], [0, 0, 1, 1])
        assert stats.iou[2] == 0.0  # pure false positives
        assert stats.present == [True, True, False]

    @pytest.mark.parametrize("num_classes", [0, 1])
    def test_rejects_degenerate_class_count(self, num_classes):
        with pytest.raises(ValueError, match="at least 2 classes"):
            ClassStats(num_classes=num_classes)


class TestUpdateStats:
    def test_decay_halves_old_counts(self):
        # Each update scales the old counts by 0.99, which halves them in 69.
        stats = ClassStats(num_classes=2)
        update_stats(stats, [1, 1], [0, 0])  # both wrong
        assert stats.confusion == [[0, 2], [0, 0]]
        update_stats(stats, [0], [0])
        assert stats.confusion == [[1, 2 * 0.99], [0, 0]]
        assert stats.iou_history == [[0.0, 0.0], [1 / (1 + 2 * 0.99), 0.0]]
        nothing = np.zeros(0, dtype=int)
        for _ in range(69):
            update_stats(stats, nothing, nothing)
        assert stats.confusion[0][1] / (2 * 0.99) == pytest.approx(0.5, abs=1e-3)

    def test_returns_the_same_object(self):
        stats = ClassStats(num_classes=2)
        assert update_stats(stats, [0], [0]) is stats

    def test_accepts_2d_inputs(self):
        stats = ClassStats(num_classes=2)
        update_stats(stats, np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int))
        assert stats.confusion[0][0] == 6.0

    def test_rejects_length_mismatch(self):
        stats = ClassStats(num_classes=2)
        with pytest.raises(ValueError, match="equal length"):
            update_stats(stats, [0, 1], [0])

    @pytest.mark.parametrize(
        "preds,labels",
        [
            ([0, 5], [0, 0]),
            ([0, 0], [-1, 0]),
            # Flat ids label * 3 + prediction of 1 and 4: inside the 9 bins.
            ([4, 0], [-1, 0]),
            ([0, 4], [0, 0]),
            ([0, 0], [3, 0]),
            ([3], [0]),
        ],
    )
    def test_rejects_out_of_range_ids(self, preds, labels):
        stats = ClassStats(num_classes=3)
        with pytest.raises(ValueError, match="class ids"):
            update_stats(stats, preds, labels)
        # A rejected batch leaves the counts alone.
        assert stats.confusion == [[0.0] * 3] * 3
        assert stats.iou_history == []


class TestClassDistribution:
    def test_frozen_inverse_distribution(self):
        stats = stats_with_known_iou()
        dist = class_distribution(stats, SamplerConfig(blend=0.0, epsilon=0.01))
        assert dist == [0.0078125, 0.3984375, 0.59375]

    def test_full_blend_is_exactly_uniform(self):
        stats = stats_with_known_iou()
        dist = class_distribution(stats, SamplerConfig(blend=1.0))
        np.testing.assert_array_equal(dist, np.ones(3) / 3)

    def test_blend_is_a_convex_combination(self):
        stats = stats_with_known_iou()
        lo, hi, mid = (
            np.array(class_distribution(stats, SamplerConfig(blend=blend)))
            for blend in (0.0, 1.0, 0.25)
        )
        np.testing.assert_allclose(mid, 0.25 * hi + 0.75 * lo, rtol=1e-15)

    def test_absent_class_gets_zero_mass(self):
        stats = ClassStats(num_classes=3)
        update_stats(stats, [0, 2, 1, 1], [0, 0, 1, 1])
        dist = class_distribution(stats, SamplerConfig(blend=0.5, epsilon=0.01))
        # present classes have iou [0.5, 1.0]; inverse = [0.51, 0.01]/0.52
        assert dist[2] == 0.0
        assert dist[0] == pytest.approx(0.7403846153846154, rel=1e-15)
        assert sum(dist) == pytest.approx(1.0, rel=1e-15)

    def test_fresh_stats_fall_back_to_all_classes(self):
        stats = ClassStats(num_classes=4)
        dist = class_distribution(stats, SamplerConfig(blend=0.0))
        np.testing.assert_allclose(dist, np.full(4, 0.25), rtol=1e-15)

    def test_worst_class_gets_most_mass_below_full_blend(self):
        stats = stats_with_known_iou()
        for blend in (0.0, 0.3, 0.9):
            dist = class_distribution(stats, SamplerConfig(blend=blend))
            assert np.argmax(dist) == 2  # lowest iou

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
            assert sum(class_distribution(stats, config)) == pytest.approx(1.0)


class TestSamplerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blend": -0.1},
            {"blend": 1.1},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"epsilon": math.inf},
            {"epsilon": math.nan},
        ],
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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_draws_the_indices_of_rng_choice(self, seed):
        rng = np.random.default_rng(100 + seed)
        stats = ClassStats(num_classes=int(rng.integers(2, 7)))
        config = SamplerConfig(blend=float(rng.uniform()), epsilon=0.01)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(10_000):
            if step % 100 == 0:
                # Move the distribution now and then, as training does.
                size = int(rng.integers(1, 50))
                update_stats(
                    stats,
                    rng.integers(0, stats.num_classes, size),
                    rng.integers(0, stats.num_classes, size),
                )
            p = class_distribution(stats, config)
            assert sample_class(stats, config, ours) == int(
                theirs.choice(stats.num_classes, p=p)
            )

    @pytest.mark.parametrize(
        "p", [[0.5, 0.6, 0.0], [-0.1, 0.6, 0.5], [np.nan, 0.5, 0.5], [0.3, 0.3, 0.3]]
    )
    def test_non_distribution_raises(self, monkeypatch, p):
        from losspool import sampler as sampler_module

        monkeypatch.setattr(sampler_module, "class_distribution", lambda *_: np.array(p))
        with pytest.raises(ValueError):
            sample_class(ClassStats(num_classes=3), SamplerConfig(), np.random.default_rng(0))


class TestStoredIou:
    def test_matches_the_confusion_counts_after_every_update(self):
        rng = np.random.default_rng(5)
        stats = ClassStats(num_classes=4)
        np.testing.assert_array_equal(stats.iou, confusion_iou(stats.confusion)[0])
        np.testing.assert_array_equal(stats.present, np.sum(stats.confusion, axis=1) > 0)
        for _ in range(200):
            size = int(rng.integers(0, 30))
            # Labels from a shrinking range, so classes drop in and out.
            labels = rng.integers(0, int(rng.integers(1, 5)), size)
            update_stats(stats, rng.integers(0, 4, size), labels)
            np.testing.assert_array_equal(stats.iou, confusion_iou(stats.confusion)[0])
            np.testing.assert_array_equal(stats.present, np.sum(stats.confusion, axis=1) > 0)
            assert stats.iou_history[-1] == stats.iou


def decayed_stats(num_classes, seed, steps=150):
    """One stats object through ``steps`` updates, yielded after each.

    Labels and predictions come from random subsets of the classes, so
    classes drop in.  Now and then the counts decay as over 73,000 to 76,000
    empty updates, into the subnormals or to 0, so classes drop out too.
    """
    rng = np.random.default_rng(seed)
    stats = ClassStats(num_classes)
    for _ in range(steps):
        if rng.random() < 0.05:
            factor = DECAY ** int(rng.integers(73_000, 76_000))
            stats.confusion = [[c * factor for c in row] for row in stats.confusion]
            size = 0
        else:
            size = int(rng.integers(0, 40))
        ids = [np.flatnonzero(rng.random(num_classes) < 0.6) for _ in range(2)]
        if not all(i.size for i in ids):
            size = 0
        labels, preds = (rng.choice(i, size) if size else np.zeros(0, int) for i in ids)
        yield update_stats(stats, preds, labels)


class TestNumpyReferences:
    """The Python-float sampler against the numpy code it replaced.

    The sampler adds each row, column and weight vector left to right.
    Below 8 classes numpy does too, so the bits agree; from 8 on numpy's
    row and vector sums go pairwise, and the results may differ in their
    last bits.
    """

    EXACT = [2, 3, 4, 5, 6, 7]
    SIZES = EXACT + [8, 9, 17, 130]

    @pytest.mark.parametrize("num_classes", SIZES)
    def test_iou_and_presence_match_numpy(self, num_classes):
        steps = 150 if num_classes < 100 else 20
        for stats in decayed_stats(num_classes, seed=num_classes, steps=steps):
            confusion = np.array(stats.confusion)
            reference, seen = confusion_iou_numpy(confusion)
            iou, covered = confusion_iou(stats.confusion)
            assert covered == seen.tolist()
            assert stats.iou == iou
            assert stats.present == (confusion.sum(axis=1) > 0).tolist()
            if num_classes in self.EXACT:
                assert np.array(iou).tobytes() == reference.tobytes()
            else:
                np.testing.assert_allclose(iou, reference, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("num_classes", SIZES)
    def test_distribution_matches_numpy(self, num_classes):
        rng = np.random.default_rng(1000 + num_classes)
        configs = [SamplerConfig(blend, epsilon) for blend in (0.0, 0.5, 1.0)
                   for epsilon in (0.01, 1e-9)]
        configs.append(SamplerConfig(float(rng.uniform()), float(rng.uniform(0.001, 2))))
        steps = 150 if num_classes < 100 else 20
        for stats in decayed_stats(num_classes, seed=num_classes, steps=steps):
            for config in configs:
                ours = class_distribution(stats, config)
                assert {type(p) for p in ours} == {float}
                reference = class_distribution_numpy(stats, config)
                if num_classes in self.EXACT:
                    assert np.array(ours).tobytes() == reference.tobytes()
                else:
                    np.testing.assert_allclose(ours, reference, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("num_classes", [2, 3, 7, 9])
    def test_integer_counts_match_numpy(self, num_classes):
        rng = np.random.default_rng(num_classes)
        for _ in range(50):
            size = int(rng.integers(1, 200))
            counts = confusion_counts(
                rng.integers(0, num_classes, size),
                rng.integers(0, int(rng.integers(1, num_classes + 1)), size),
                num_classes,
            )
            reference, seen = confusion_iou_numpy(counts)
            iou, covered = confusion_iou(counts.tolist())
            assert np.array(iou).tobytes() == reference.tobytes()
            assert covered == seen.tolist()


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
