import numpy as np
import pytest

from msocc import metrics
from msocc.gt_multiscale import FREE


def loop_oracle(pred, gt, mask, k):
    """Per-voxel counts over the classes 0..k-1 and FREE (index k), and the
    number of masked voxels."""
    labels = list(range(k)) + [FREE]
    tp, fp, fn = np.zeros((3, k + 1), int)
    voxels = 0
    for p, g, m in zip(pred.ravel(), gt.ravel(), mask.ravel()):
        if not m:
            continue
        voxels += 1
        for i, c in enumerate(labels):
            if p == c and g == c:
                tp[i] += 1
            elif p == c and g != c:
                fp[i] += 1
            elif p != c and g == c:
                fn[i] += 1
    return tp, fp, fn, voxels


def random_labels(rng, shape=(6, 6, 2), k=5, p_free=0.3):
    labels = rng.integers(0, k, shape).astype(np.uint8)
    return np.where(rng.random(shape) < p_free, FREE, labels).astype(np.uint8)


class TestAccumulate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = random_labels(rng)
        t = metrics.ConfusionTally(5)
        metrics.accumulate(gt, gt, np.ones(gt.shape, bool), t)
        assert t.fp.sum() == 0 and t.fn.sum() == 0

    def test_empty_mask(self):
        rng = np.random.default_rng(1)
        t = metrics.ConfusionTally(5)
        metrics.accumulate(random_labels(rng), random_labels(rng),
                           np.zeros((6, 6, 2), bool), t)
        assert t.tp.sum() + t.fp.sum() + t.fn.sum() == 0
        assert t.voxels_evaluated == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        shape = (10, 10, 4)
        pred = random_labels(rng, shape, k=17)
        gt = random_labels(rng, shape, k=17)
        mask = rng.random(shape) < 0.7
        t = metrics.ConfusionTally(17)
        metrics.accumulate(pred, gt, mask, t)
        tp, fp, fn, voxels = loop_oracle(pred, gt, mask, 17)
        assert np.array_equal(t.tp, tp[:17])
        assert np.array_equal(t.fp, fp[:17])
        assert np.array_equal(t.fn, fn[:17])
        assert t.voxels_evaluated == voxels
        denom = tp + fp + fn
        scored = denom > 0
        iou = tp[scored] / denom[scored]
        per_class, mean = metrics.miou(t, include_free=True)
        assert per_class[FREE] == tp[17] / denom[17]
        ids = [*range(17), FREE]
        assert list(per_class) == [ids[i] for i in np.flatnonzero(scored)]
        assert list(per_class.values()) == list(iou)
        assert mean == pytest.approx(iou.mean())

    def test_shape_mismatch(self):
        t = metrics.ConfusionTally(5)
        with pytest.raises(ValueError):
            metrics.accumulate(np.zeros((2, 2, 1), np.uint8),
                               np.zeros((2, 2, 2), np.uint8),
                               np.ones((2, 2, 1), bool), t)

    def test_frames_accumulate_like_concat(self):
        rng = np.random.default_rng(9)
        frames = [(random_labels(rng), random_labels(rng),
                   rng.random((6, 6, 2)) < 0.6) for _ in range(4)]
        t_frames = metrics.ConfusionTally(5)
        for p, g, m in frames:
            metrics.accumulate(p, g, m, t_frames)
        t_all = metrics.ConfusionTally(5)
        metrics.accumulate(*(np.concatenate(a) for a in zip(*frames)), t_all)
        assert np.array_equal(t_frames.matrix, t_all.matrix)
        assert t_frames.voxels_evaluated == t_all.voxels_evaluated

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("label", [5, 20, -1])
    def test_label_outside_classes_rejected(self, side, label):
        rng = np.random.default_rng(10)
        arrays = {"pred": random_labels(rng).astype(np.int64),
                  "gt": random_labels(rng).astype(np.int64)}
        mask = np.ones((6, 6, 2), bool)
        mask[0, 0, 0] = False
        arrays[side][0, 0, 0] = label  # outside the mask: not read
        t = metrics.ConfusionTally(5)
        metrics.accumulate(arrays["pred"], arrays["gt"], mask, t)
        arrays[side][1, 0, 0] = label
        with pytest.raises(ValueError, match=f"label {label} "):
            metrics.accumulate(arrays["pred"], arrays["gt"], mask, t)
        assert t.voxels_evaluated == mask.sum()


class TestMiou:
    def test_perfect(self):
        rng = np.random.default_rng(2)
        gt = random_labels(rng)
        t = metrics.ConfusionTally(5)
        metrics.accumulate(gt, gt, np.ones(gt.shape, bool), t)
        _, mean = metrics.miou(t)
        assert mean == 1.0

    def test_disjoint(self):
        gt = np.zeros((4, 4, 1), np.uint8)
        pred = np.ones((4, 4, 1), np.uint8)
        t = metrics.ConfusionTally(5)
        metrics.accumulate(pred, gt, np.ones(gt.shape, bool), t)
        _, mean = metrics.miou(t)
        assert mean == 0.0

    def test_half_recall(self):
        gt = np.zeros((8, 1, 1), np.uint8)
        pred = gt.copy()
        pred[:4] = FREE
        t = metrics.ConfusionTally(2)
        metrics.accumulate(pred, gt, np.ones(gt.shape, bool), t)
        per_class, mean = metrics.miou(t)
        assert per_class[0] == 0.5 and mean == 0.5

    def test_zero_denominator_class_excluded(self):
        gt = np.zeros((4, 1, 1), np.uint8)
        t = metrics.ConfusionTally(5)
        metrics.accumulate(gt, gt, np.ones(gt.shape, bool), t)
        per_class, mean = metrics.miou(t)
        assert set(per_class) == {0}
        assert mean == 1.0

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError):
            metrics.miou(metrics.ConfusionTally(5))

    def test_mask_independence(self):
        rng = np.random.default_rng(3)
        pred, gt = random_labels(rng), random_labels(rng)
        mask = rng.random(pred.shape) < 0.5
        t1 = metrics.ConfusionTally(5)
        metrics.accumulate(pred, gt, mask, t1)
        pred2 = pred.copy()
        pred2[~mask] = ((pred2[~mask].astype(int) + 1) % 5).astype(np.uint8)
        t2 = metrics.ConfusionTally(5)
        metrics.accumulate(pred2, gt, mask, t2)
        assert metrics.miou(t1) == metrics.miou(t2)

    def test_corruption_monotone(self):
        rng = np.random.default_rng(4)
        gt = random_labels(rng, shape=(10, 10, 4))
        mask = np.ones(gt.shape, bool)
        order = rng.permutation(gt.size)
        prev = 1.0
        for frac in (0.0, 0.1, 0.3, 0.6, 0.9):
            pred = gt.copy().ravel()
            pred[order[:int(frac * gt.size)]] = FREE
            t = metrics.ConfusionTally(5)
            metrics.accumulate(pred.reshape(gt.shape), gt, mask, t)
            _, mean = metrics.miou(t)
            assert mean <= prev + 1e-12
            prev = mean

    def test_include_free(self):
        gt = np.full((4, 1, 1), FREE, np.uint8)
        gt[0] = 1
        pred = gt.copy()
        t = metrics.ConfusionTally(5)
        metrics.accumulate(pred, gt, np.ones(gt.shape, bool), t)
        per_class, mean = metrics.miou(t, include_free=True)
        assert per_class[FREE] == 1.0
