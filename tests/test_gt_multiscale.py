import inspect

import numpy as np
import pytest

from msocc import fixtures, gt_multiscale, losses, metrics, postprocess
from msocc.gt_multiscale import (CLASS_NAMES, FREE, build_pyramid,
                                 check_gt, check_labels, downsample_mask,
                                 downsample_occ, downsample_sem)


def block_oracle(a, reduce_fn):
    nx, ny, nz = a.shape
    out = np.empty((nx // 2, ny // 2, nz // 2), dtype=object)
    for i in range(nx // 2):
        for j in range(ny // 2):
            for k in range(nz // 2):
                out[i, j, k] = reduce_fn(
                    a[2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * k:2 * k + 2]
                    .ravel())
    return out


def majority_oracle(block, occupied):
    if not occupied:
        return FREE
    labels = [x for x in block if x != FREE]
    counts = {}
    for x in labels:
        counts[x] = counts.get(x, 0) + 1
    best = max(counts.values())
    return min(l for l, c in counts.items() if c == best)


def random_scene(rng, shape=(8, 8, 4), num_classes=17, p_occ=0.5):
    occ = (rng.random(shape) < p_occ).astype(np.uint8)
    sem = np.where(occ == 1,
                   rng.integers(0, num_classes, shape),
                   FREE).astype(np.uint8)
    mask = rng.random(shape) < 0.7
    return occ, sem, mask


class TestDownsampleOcc:
    def test_all_zero(self):
        assert np.all(downsample_occ(np.zeros((4, 4, 2), np.uint8)) == 0)

    def test_single_cell(self):
        occ = np.zeros((4, 4, 2), np.uint8)
        occ[3, 1, 0] = 1
        out = downsample_occ(occ)
        assert out.sum() == 1
        assert out[1, 0, 0] == 1

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            downsample_occ(np.zeros((3, 4, 2), np.uint8))

    @pytest.mark.parametrize("seed", range(5))
    def test_block_oracle(self, seed):
        rng = np.random.default_rng(seed)
        occ, _, _ = random_scene(rng)
        out = downsample_occ(occ)
        want = block_oracle(occ, max).astype(np.uint8)
        assert np.array_equal(out, want)


class TestDownsampleSem:
    def test_uniform_block(self):
        sem = np.full((2, 2, 2), 3, np.uint8)
        occ = np.ones((1, 1, 1), np.uint8)
        assert downsample_sem(sem, occ)[0, 0, 0] == 3

    def test_majority_over_free(self):
        sem = np.full((2, 2, 2), FREE, np.uint8)
        sem.ravel()[:5] = 4
        occ = np.ones((1, 1, 1), np.uint8)
        assert downsample_sem(sem, occ)[0, 0, 0] == 4

    def test_occupied_cell_of_free_children_rejected(self):
        # build_pyramid's check_gt rules this out; a direct call must too
        sem = np.full((2, 2, 2), FREE, np.uint8)
        occ = np.ones((1, 1, 1), np.uint8)
        with pytest.raises(AssertionError, match="no non-FREE child label"):
            downsample_sem(sem, occ)

    def test_tie_breaks_to_smaller_id(self):
        sem = np.array([2, 2, 2, 7, 7, 7, FREE, FREE],
                       np.uint8).reshape(2, 2, 2)
        occ = np.ones((1, 1, 1), np.uint8)
        assert downsample_sem(sem, occ)[0, 0, 0] == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_histogram_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        occ, sem, _ = random_scene(rng)
        occ_c = downsample_occ(occ)
        out = downsample_sem(sem, occ_c)
        for i in range(4):
            for j in range(4):
                for k in range(2):
                    block = sem[2 * i:2 * i + 2, 2 * j:2 * j + 2,
                                2 * k:2 * k + 2].ravel()
                    assert out[i, j, k] == majority_oracle(
                        list(block), occ_c[i, j, k] == 1)


class TestDownsampleMask:
    def test_all_false(self):
        assert not downsample_mask(np.zeros((4, 4, 2), bool)).any()

    def test_one_true(self):
        m = np.zeros((4, 4, 2), bool)
        m[0, 3, 1] = True
        out = downsample_mask(m)
        assert out.sum() == 1 and out[0, 1, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_or_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        _, _, mask = random_scene(rng)
        out = downsample_mask(mask)
        want = block_oracle(mask, any).astype(bool)
        assert np.array_equal(out, want)


class TestBuildPyramid:
    def test_all_free(self):
        occ = np.zeros((8, 8, 4), np.uint8)
        sem = np.full((8, 8, 4), FREE, np.uint8)
        mask = np.ones((8, 8, 4), bool)
        pyr = build_pyramid(occ, sem, mask)
        assert all((s == FREE).all() for s in pyr.sem)
        assert all((o == 0).all() for o in pyr.occ)

    def test_single_cell_per_level(self):
        occ = np.zeros((8, 8, 4), np.uint8)
        occ[5, 2, 1] = 1
        sem = np.where(occ == 1, 9, FREE).astype(np.uint8)
        pyr = build_pyramid(occ, sem, np.ones((8, 8, 4), bool))
        assert [o.sum() for o in pyr.occ] == [1, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_level2_equals_direct_4x_pooling(self, seed):
        rng = np.random.default_rng(300 + seed)
        occ, sem, mask = random_scene(rng)
        pyr = build_pyramid(occ, sem, mask)
        direct = np.zeros((2, 2, 1), np.uint8)
        for i in range(2):
            for j in range(2):
                direct[i, j, 0] = occ[4 * i:4 * i + 4,
                                      4 * j:4 * j + 4, :].max()
        assert np.array_equal(pyr.occ[2], direct)

    @pytest.mark.parametrize("seed", range(5))
    def test_free_occupancy_consistency(self, seed):
        rng = np.random.default_rng(400 + seed)
        occ, sem, mask = random_scene(rng)
        pyr = build_pyramid(occ, sem, mask)
        for o, s in zip(pyr.occ, pyr.sem):
            assert np.array_equal(s == FREE, o == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_occupancy_fraction(self, seed):
        rng = np.random.default_rng(500 + seed)
        occ, sem, mask = random_scene(rng, p_occ=0.2)
        pyr = build_pyramid(occ, sem, mask)
        fracs = [o.mean() for o in pyr.occ]
        assert fracs[0] <= fracs[1] <= fracs[2]

    @pytest.mark.parametrize("seed", range(5))
    def test_no_new_labels(self, seed):
        rng = np.random.default_rng(600 + seed)
        occ, sem, mask = random_scene(rng)
        pyr = build_pyramid(occ, sem, mask)
        fine = set(np.unique(sem))
        for s in pyr.sem:
            assert set(np.unique(s)) <= fine | {FREE}

    def test_inconsistent_inputs_rejected(self):
        occ = np.zeros((4, 4, 2), np.uint8)
        sem = np.zeros((4, 4, 2), np.uint8)  # label 0 where occ says free
        with pytest.raises(ValueError):
            build_pyramid(occ, sem, np.ones((4, 4, 2), bool))

    @pytest.mark.parametrize("mismatched", ["sem", "mask"])
    def test_shape_mismatch_rejected(self, mismatched):
        args = {"occ": np.zeros((4, 4, 2), np.uint8),
                "sem": np.full((4, 4, 2), FREE, np.uint8),
                "mask": np.ones((4, 4, 2), bool)}
        args[mismatched] = args[mismatched][:2, :2]
        with pytest.raises(ValueError, match="shape mismatch"):
            build_pyramid(**args)

    def test_occupancy_outside_0_1_rejected(self):
        occ = np.ones((8, 8, 4), np.uint8)
        sem = np.full((8, 8, 4), 4, np.uint8)
        mask = np.ones((8, 8, 4), bool)
        build_pyramid(occ, sem, mask)
        occ[1, 2, 1] = 2
        with pytest.raises(ValueError, match="occupancy must be 0 or 1"):
            build_pyramid(occ, sem, mask)

    def test_label_not_below_num_classes_rejected(self):
        occ = np.ones((8, 8, 4), np.uint8)
        sem = np.full((8, 8, 4), 16, np.uint8)
        mask = np.ones((8, 8, 4), bool)
        build_pyramid(occ, sem, mask)
        sem[1, 2, 1] = 17
        with pytest.raises(ValueError, match=r"label 17 is neither a class id "
                                             r"below 17 nor FREE \(255\)"):
            build_pyramid(occ, sem, mask)

    def test_negative_label_rejected(self):
        sem = np.full((8, 8, 4), FREE, np.int64)
        sem[0, 0, 0], sem[1, 2, 1] = 4, -1
        check_labels(sem[0])  # FREE and class ids pass
        with pytest.raises(ValueError, match=r"label -1 is neither a class "
                                             r"id below 17 nor FREE \(255\)"):
            check_labels(sem)

    @pytest.mark.parametrize("levels", [0, -1])
    def test_fewer_than_one_level_rejected(self, levels):
        occ = np.ones((8, 8, 4), np.uint8)
        sem = np.full((8, 8, 4), 4, np.uint8)
        with pytest.raises(ValueError, match=f"at least 1 pyramid level, "
                                             f"got {levels}"):
            build_pyramid(occ, sem, np.ones((8, 8, 4), bool), levels=levels)


def test_class_names_are_the_one_label_space():
    # K = len(CLASS_NAMES): 17 classes plus FREE
    assert len(CLASS_NAMES) == 17 and FREE >= len(CLASS_NAMES)
    assert postprocess.CLASS_NAMES is CLASS_NAMES
    assert fixtures._GROUND_CLASS == CLASS_NAMES.index("Driveable Surface")
    sem_prob = fixtures.oracle_predictions(fixtures.make_scene(num_cameras=1))[1]
    assert len(sem_prob) == len(CLASS_NAMES)
    # the label kernels take no class count; only the loss weights do, since
    # the loss kernels read K from their logits' rows and criterion 7 builds
    # a 4-class case
    kernels = [fn for mod in (gt_multiscale, metrics, losses)
               for fn in vars(mod).values() if inspect.isfunction(fn)]
    takes_k = {fn.__qualname__ for fn in (*kernels, losses.ClassWeights.uniform)
               if "num_classes" in inspect.signature(fn).parameters}
    assert takes_k == {"class_frequency_weights", "ClassWeights.uniform"}
    for fn in (downsample_sem, check_labels, check_gt, build_pyramid,
               metrics.accumulate, metrics._matrix_index):
        assert fn in kernels
