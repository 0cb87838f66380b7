import math

import numpy as np
import pytest

from _reference import explicit_depth_ce
from msocc import losses
from msocc.geometry import FrustumSpec
from msocc.gt_multiscale import FREE


def finite_diff(fn, z, h=1e-5):
    g = np.zeros_like(z, dtype=np.float64)
    it = np.nditer(z, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        g[i] = (fn(zp) - fn(zm)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def random_instance(seed, shape=(4, 3, 2), k=5):
    rng = np.random.default_rng(seed)
    occ = (rng.random(shape) < 0.6).astype(np.uint8)
    sem = np.where(occ == 1, rng.integers(0, k, shape), FREE).astype(np.uint8)
    mask = rng.random(shape) < 0.8
    if not (mask & (occ == 1)).any():
        mask[:] = True
    w = losses.class_frequency_weights(sem, occ, mask, k)
    return rng, occ, sem, mask, w


class TestClassFrequencyWeights:
    def test_balanced_two_classes(self):
        occ = np.array([0, 0, 1, 1], np.uint8).reshape(4, 1, 1)
        sem = np.where(occ == 1, 0, FREE).astype(np.uint8)
        w = losses.class_frequency_weights(sem, occ, np.ones_like(occ, bool),
                                           num_classes=1)
        assert np.allclose(w.w_occ, [1.0, 1.0])

    def test_nine_to_one(self):
        occ = np.array([1] * 1 + [0] * 9, np.uint8).reshape(10, 1, 1)
        sem = np.where(occ == 1, 0, FREE).astype(np.uint8)
        w = losses.class_frequency_weights(sem, occ, np.ones_like(occ, bool),
                                           num_classes=1)
        assert np.allclose(w.w_occ, [0.2, 1.8])

    def test_absent_class_finite(self):
        occ = np.ones((4, 1, 1), np.uint8)
        sem = np.zeros((4, 1, 1), np.uint8)
        w = losses.class_frequency_weights(sem, occ, np.ones_like(occ, bool),
                                           num_classes=3)
        assert np.isfinite(w.w_sem).all()
        assert np.isclose(w.w_sem.mean(), 1.0)
        assert w.w_sem[1] == w.w_sem[2] > w.w_sem[0]

    def test_empty_mask_rejected(self):
        occ = np.ones((2, 2, 2), np.uint8)
        sem = np.zeros((2, 2, 2), np.uint8)
        with pytest.raises(ValueError):
            losses.class_frequency_weights(sem, occ,
                                           np.zeros((2, 2, 2), bool))

    @pytest.mark.parametrize("mismatched", ["sem", "mask"])
    def test_shape_mismatch_rejected(self, mismatched):
        args = {"sem": np.zeros((4, 4, 2), np.uint8),
                "occ": np.ones((4, 4, 2), np.uint8),
                "mask": np.ones((4, 4, 2), bool)}
        args[mismatched] = args[mismatched][:2, :2]
        with pytest.raises(ValueError, match="shape mismatch"):
            losses.class_frequency_weights(**args)


class TestBceOccLoss:
    def test_empty_mask_rejected(self):
        occ = np.ones((2, 2, 2), np.uint8)
        with pytest.raises(ValueError, match="empty visibility mask"):
            losses.bce_occ_loss(np.zeros((2, 2, 2)), occ,
                                np.zeros_like(occ, bool),
                                losses.ClassWeights.uniform(2))

    @pytest.mark.parametrize("mismatched", ["occ_logits", "gt", "mask"])
    def test_shape_mismatch_rejected(self, mismatched):
        args = {"occ_logits": np.zeros((4, 4, 2)),
                "gt": np.ones((4, 4, 2), np.uint8),
                "mask": np.ones((4, 4, 2), bool),
                "w": losses.ClassWeights.uniform(2)}
        args[mismatched] = args[mismatched][:2, :2]
        with pytest.raises(ValueError, match="shape mismatch"):
            losses.bce_occ_loss(**args)

    def test_saturated_correct(self):
        occ = np.ones((1, 1, 1), np.uint8)
        z = np.full((1, 1, 1), 50.0)
        loss, grad = losses.bce_occ_loss(z, occ, np.ones_like(occ, bool),
                                         losses.ClassWeights.uniform(2))
        assert loss < 1e-20
        assert np.abs(grad).max() < 1e-20

    def test_uniform_logits_ln2(self):
        rng = np.random.default_rng(0)
        occ = (rng.random((4, 4, 2)) < 0.5).astype(np.uint8)
        z = np.zeros((4, 4, 2))
        loss, _ = losses.bce_occ_loss(z, occ, np.ones_like(occ, bool),
                                      losses.ClassWeights.uniform(2))
        assert abs(loss - math.log(2)) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_finite_difference(self, seed):
        rng, occ, sem, mask, w = random_instance(seed)
        z = rng.standard_normal(occ.shape) * 2
        _, grad = losses.bce_occ_loss(z, occ, mask, w)
        fd = finite_diff(lambda zz: losses.bce_occ_loss(zz, occ, mask, w)[0], z)
        assert rel_err(grad, fd) < 1e-4

    def test_mask_zeroes_gradient(self):
        rng, occ, sem, mask, w = random_instance(42)
        z = rng.standard_normal(occ.shape)
        loss, grad = losses.bce_occ_loss(z, occ, mask, w)
        assert np.all(grad[~mask] == 0)
        z2 = z.copy()
        z2[~mask] += 100.0
        loss2, _ = losses.bce_occ_loss(z2, occ, mask, w)
        assert loss == loss2

    def test_weight_scaling_linear(self):
        rng, occ, sem, mask, w = random_instance(7)
        z = rng.standard_normal(occ.shape)
        l1, _ = losses.bce_occ_loss(z, occ, mask, w)
        w3 = losses.ClassWeights(3.0 * w.w_occ, w.w_sem)
        l3, _ = losses.bce_occ_loss(z, occ, mask, w3)
        assert abs(l3 - 3.0 * l1) < 1e-12 * max(1.0, abs(l3))

    def test_grows_saturating_wrong(self):
        occ = np.ones((1, 1, 1), np.uint8)
        m = np.ones_like(occ, bool)
        w = losses.ClassWeights.uniform(2)
        prev = 0.0
        for mag in (1.0, 10.0, 100.0):
            loss, _ = losses.bce_occ_loss(np.full(occ.shape, -mag), occ, m, w)
            assert loss > prev
            prev = loss


def weighted_ce(sem_logits, gt, contrib, w):
    """Independent cross-entropy used to pin focal at gamma = 0."""
    z = sem_logits[:, contrib]
    labels = gt[contrib].astype(int)
    z = z - z.max(axis=0, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    return float((w.w_sem[labels] * -logp[labels, np.arange(len(labels))])
                 .mean())


class TestFocalSemLoss:
    def test_gamma_zero_is_cross_entropy(self):
        rng, occ, sem, mask, w = random_instance(10)
        z = rng.standard_normal((5, *occ.shape)) * 2
        loss, _ = losses.focal_sem_loss(z, sem, occ, mask, w, gamma=0.0)
        want = weighted_ce(z, sem, mask & (occ == 1), w)
        assert abs(loss - want) < 1e-12

    def test_scalar_example(self):
        z = np.zeros((2, 1, 1, 1))
        gt = np.zeros((1, 1, 1), np.uint8)
        occ = np.ones((1, 1, 1), np.uint8)
        loss, _ = losses.focal_sem_loss(z, gt, occ, np.ones_like(occ, bool),
                                        losses.ClassWeights.uniform(2),
                                        gamma=2.0)
        assert abs(loss - 0.25 * math.log(2)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_finite_difference(self, seed):
        rng, occ, sem, mask, w = random_instance(seed + 50)
        z = rng.standard_normal((5, *occ.shape)) * 2
        _, grad = losses.focal_sem_loss(z, sem, occ, mask, w, gamma=2.0)
        fd = finite_diff(lambda zz: losses.focal_sem_loss(
            zz, sem, occ, mask, w, gamma=2.0)[0], z)
        assert rel_err(grad, fd) < 1e-4

    def test_mask_independence(self):
        rng, occ, sem, mask, w = random_instance(77)
        z = rng.standard_normal((5, *occ.shape))
        loss, grad = losses.focal_sem_loss(z, sem, occ, mask, w)
        contrib = mask & (occ == 1)
        z2 = z.copy()
        z2[:, ~contrib] -= 17.0
        loss2, _ = losses.focal_sem_loss(z2, sem, occ, mask, w)
        assert loss == loss2
        assert np.all(grad[:, ~contrib] == 0)

    def test_weight_scaling_linear(self):
        rng, occ, sem, mask, w = random_instance(78)
        z = rng.standard_normal((5, *occ.shape))
        l1, _ = losses.focal_sem_loss(z, sem, occ, mask, w)
        w2 = losses.ClassWeights(w.w_occ, 2.0 * w.w_sem)
        l2, _ = losses.focal_sem_loss(z, sem, occ, mask, w2)
        assert abs(l2 - 2.0 * l1) < 1e-12 * max(1.0, abs(l2))

    def test_saturated_wrong_class_keeps_a_finite_gradient(self):
        # class 0 leads the true class 2 by 800 on voxel 0, so its p
        # underflows to 0: the loss is inf, that voxel's gradient is the
        # limit wt * (p - one_hot) / n, and no RuntimeWarning is raised
        gt = np.full((2, 1, 1), 2, np.uint8)
        occ = np.ones((2, 1, 1), np.uint8)
        w = losses.ClassWeights(np.ones(2), np.array([1.0, 1.0, 3.0]))
        z = np.zeros((3, 2, 1, 1))
        _, plain = losses.focal_sem_loss(z, gt, occ, occ == 1, w, gamma=2.0)
        z[0, 0] = 800.0
        loss, grad = losses.focal_sem_loss(z, gt, occ, occ == 1, w, gamma=2.0)
        assert loss == np.inf
        assert grad[:, 0, 0, 0].tolist() == [1.5, 0.0, -1.5]
        # the other voxel keeps its bytes
        assert grad[:, 1].tobytes() == plain[:, 1].tobytes()

    def test_negative_gamma_rejected(self):
        occ = np.ones((1, 1, 1), np.uint8)
        with pytest.raises(ValueError):
            losses.focal_sem_loss(np.zeros((2, 1, 1, 1)),
                                  np.zeros((1, 1, 1), np.uint8), occ,
                                  np.ones_like(occ, bool),
                                  losses.ClassWeights.uniform(2), gamma=-1.0)

    def test_empty_contributing_set_rejected(self):
        occ = np.zeros((2, 1, 1), np.uint8)
        with pytest.raises(ValueError):
            losses.focal_sem_loss(np.zeros((2, 2, 1, 1)),
                                  np.full((2, 1, 1), FREE, np.uint8), occ,
                                  np.ones_like(occ, bool),
                                  losses.ClassWeights.uniform(2))

    @pytest.mark.parametrize("mismatched", ["sem_logits", "occ_gt", "mask"])
    def test_shape_mismatch_rejected(self, mismatched):
        args = {"sem_logits": np.zeros((3, 4, 4, 2)),
                "gt": np.zeros((4, 4, 2), np.uint8),
                "occ_gt": np.ones((4, 4, 2), np.uint8),
                "mask": np.ones((4, 4, 2), bool),
                "w": losses.ClassWeights.uniform(3)}
        args[mismatched] = args[mismatched][..., :2, :2, :]
        with pytest.raises(ValueError, match="shape mismatch"):
            losses.focal_sem_loss(**args)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_weight_count_must_match_logit_rows(self, rows):
        occ = np.ones((4, 4, 2), np.uint8)
        with pytest.raises(ValueError, match=f"3 class weights for {rows} "
                                             f"logit rows"):
            losses.focal_sem_loss(np.zeros((rows, 4, 4, 2)),
                                  np.zeros((4, 4, 2), np.uint8), occ,
                                  np.ones_like(occ, bool),
                                  losses.ClassWeights.uniform(3))


class TestDepthLoss:
    def frustum(self):
        return FrustumSpec(depth_min=1.0, depth_max=60.0,
                           depth_step=1.0)

    def test_one_hot_correct(self):
        f = self.frustum()
        gt = np.full((3, 4), 10.4)
        z = np.zeros((f.num_bins, 3, 4))
        z[f.bin_of(gt)[0, 0]] = 50.0
        loss, _ = losses.depth_loss(z, gt, np.ones((3, 4), bool), f)
        assert loss < 1e-15

    def test_uniform_is_ln_d(self):
        f = self.frustum()
        assert f.num_bins == 59
        gt = np.full((3, 4), 7.0)
        z = np.zeros((59, 3, 4))
        loss, _ = losses.depth_loss(z, gt, np.ones((3, 4), bool), f)
        assert abs(loss - math.log(59)) < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_finite_difference(self, seed):
        f = FrustumSpec(depth_min=1.0, depth_max=9.0)
        rng = np.random.default_rng(seed)
        gt = rng.uniform(1.0, 8.9, (3, 4))
        valid = rng.random((3, 4)) < 0.7
        if not valid.any():
            valid[0, 0] = True
        z = rng.standard_normal((f.num_bins, 3, 4)) * 2
        _, grad = losses.depth_loss(z, gt, valid, f)
        fd = finite_diff(lambda zz: losses.depth_loss(zz, gt, valid, f)[0], z)
        assert rel_err(grad, fd) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_explicit_cross_entropy(self, seed):
        # the loss equals the written-out formula; the gradient, computed
        # through the focal loss's chain rule, is within 1e-14 of max|grad|
        f = FrustumSpec(depth_min=1.0, depth_max=13.0)
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.0, 14.0, (5, 6))
        gt[rng.random(gt.shape) < 0.1] = np.inf
        gt[rng.random(gt.shape) < 0.1] = np.nan
        valid = f.in_range(gt) & (rng.random(gt.shape) < 0.8)
        valid[0, 0], gt[0, 0] = True, 6.5
        z = rng.standard_normal((f.num_bins, 5, 6)) * rng.uniform(0.1, 20.0)
        loss, grad = losses.depth_loss(z, gt, valid, f)
        want_loss, want_grad = explicit_depth_ce(z, gt, valid, f)
        assert loss == want_loss
        assert (np.abs(grad - want_grad).max()
                <= 1e-14 * np.abs(want_grad).max())

    def test_saturated_wrong_bin_keeps_a_finite_gradient(self):
        # bin 0 leads the true bin 2 by 800, so p of the true bin underflows
        # to 0: the loss is inf, and the gradient stays p - one_hot
        f = FrustumSpec(depth_min=1.0, depth_max=5.0)
        z = np.zeros((4, 1, 2))
        z[0] = 800.0
        gt = np.full((1, 2), 3.5)
        with np.errstate(divide="ignore"):
            loss, grad = losses.depth_loss(z, gt, np.ones((1, 2), bool), f)
        assert loss == np.inf
        assert grad[:, 0, 0].tolist() == [0.5, 0.0, -0.5, 0.0]

    def test_no_valid_pixels_rejected(self):
        f = self.frustum()
        with pytest.raises(ValueError):
            losses.depth_loss(np.zeros((59, 3, 4)), np.full((3, 4), 5.0),
                              np.zeros((3, 4), bool), f)

    def test_valid_depth_outside_bins_rejected(self):
        # a caller's valid mask that admits a depth past depth_max
        with pytest.raises(ValueError, match="outside the bin range"):
            losses.depth_loss(np.zeros((59, 3, 4)), np.full((3, 4), 75.0),
                              np.ones((3, 4), bool), self.frustum())

    def test_bin_count_mismatch_rejected(self):
        # 12 logits against the 59 bins of 1-60 m
        with pytest.raises(ValueError, match="12 depth logits for 59"):
            losses.depth_loss(np.zeros((12, 3, 4)), np.full((3, 4), 5.0),
                              np.ones((3, 4), bool), self.frustum())

    @pytest.mark.parametrize("gt_shape,valid_shape",
                             [((3, 4), (6, 8)), ((6, 8), (6, 8)),
                              ((6, 8), (3, 4))])
    def test_shape_mismatch_rejected(self, gt_shape, valid_shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            losses.depth_loss(np.zeros((59, 3, 4)), np.full(gt_shape, 5.0),
                              np.ones(valid_shape, bool), self.frustum())


class TestTotalLoss:
    def test_all_zero(self):
        r = losses.total_loss([0, 0, 0], [0, 0, 0], [0, 0, 0])
        assert r["total"] == 0.0

    def test_alpha_arithmetic(self):
        r = losses.total_loss([1, 1, 1], [0, 0, 0], [0, 0, 0])
        assert r["total"] == 1.75
        assert [row["alpha"] for row in r["scales"]] == [1.0, 0.5, 0.25]

    @pytest.mark.parametrize("scales", [1, 2, 4])
    def test_alphas_halve_per_scale(self, scales):
        r = losses.total_loss([1.0] * scales, [0.0] * scales, [0.0] * scales)
        alphas = [row["alpha"] for row in r["scales"]]
        assert alphas == [1.0, 0.5, 0.25, 0.125][:scales]
        assert r["total"] == sum(alphas)

    def test_random_components_match_hand_sum(self):
        rng = np.random.default_rng(9)
        o, s, d = (rng.random(3) for _ in range(3))
        r = losses.total_loss(list(o), list(s), list(d))
        want = sum(a * (oo + ss + dd) for a, oo, ss, dd
                   in zip((1, 0.5, 0.25), o, s, d))
        assert abs(r["total"] - want) < 1e-12
        for i in range(3):
            assert r["scales"][i]["total"] == o[i] + s[i] + d[i]

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            losses.total_loss([1, 2], [1, 2, 3], [0, 0, 0])
