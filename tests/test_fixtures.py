import tracemalloc
import warnings

import numpy as np
import pytest

from msocc import fixtures
from msocc import geometry as geo
from msocc.geometry import VoxelGridSpec, voxel_indices
from msocc.gt_multiscale import FREE

from _reference import four_term_sample, per_step_raymarch


class TestValueNoise:
    def test_deterministic(self):
        x = np.linspace(-3, 3, 50)
        a = fixtures.value_noise(7, x, x * 0.5)
        b = fixtures.value_noise(7, x, x * 0.5)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        x = np.linspace(-3, 3, 50)
        assert not np.allclose(fixtures.value_noise(1, x, x),
                               fixtures.value_noise(2, x, x))

    def test_range(self):
        rng = np.random.default_rng(0)
        v = fixtures.value_noise(3, rng.uniform(-10, 10, 1000),
                                 rng.uniform(-10, 10, 1000))
        assert v.min() >= -1.0 and v.max() <= 1.0


class TestRaymarch:
    def grid(self):
        return VoxelGridSpec(10, 10, 10,
                             origin=np.array([0.0, 0.0, 0.0]),
                             voxel_size=np.array([1.0, 1.0, 1.0]))

    def test_wall_hit(self):
        g = self.grid()
        occ = np.zeros(g.shape, bool)
        occ[7, :, :] = True
        t = fixtures.raymarch(occ, g, [0.5, 5.0, 5.0], [1.0, 0.0, 0.0])
        assert np.isclose(t[0], 6.5)

    def test_miss(self):
        g = self.grid()
        occ = np.zeros(g.shape, bool)
        t = fixtures.raymarch(occ, g, [0.5, 5.0, 5.0], [1.0, 0.0, 0.0])
        assert np.isinf(t[0])

    def test_start_inside_occupied(self):
        g = self.grid()
        occ = np.ones(g.shape, bool)
        t = fixtures.raymarch(occ, g, [5.0, 5.0, 5.0], [1.0, 0.0, 0.0])
        assert t[0] <= 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_sampling_oracle(self, seed):
        g = self.grid()
        rng = np.random.default_rng(seed)
        occ = rng.random(g.shape) < 0.05
        origins = rng.uniform(-2, 12, (20, 3))
        dirs = rng.standard_normal((20, 3))
        t = fixtures.raymarch(occ, g, origins, dirs)
        occf = occ.reshape(-1)
        for i in range(20):
            ts = np.arange(0.0, 30.0, 0.002)
            pts = origins[i] + ts[:, None] * dirs[i]
            vi = voxel_indices(pts, g)
            hit = (vi >= 0) & occf[np.clip(vi, 0, None)]
            want = ts[hit][0] if hit.any() else np.inf
            if np.isinf(want):
                assert np.isinf(t[i])
            else:
                assert abs(t[i] - want) < 0.01

    def dyadic_grid(self):
        # voxel sizes and origin exact in binary, so boundary times tie
        return VoxelGridSpec(12, 10, 6, origin=np.array([-3.0, -2.5, -0.5]),
                             voxel_size=np.array([0.5, 0.5, 0.25]))

    def test_ray_off_a_still_axis_misses_without_warning(self):
        # outside the x slab with no x motion: no start cell to compute
        g = self.grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = fixtures.raymarch(np.zeros(g.shape, bool), g,
                                  [-1.0, 5.0, 5.0], [0.0, 1.0, 0.0])
        assert np.isinf(t[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_same_bytes_as_the_per_step_walk(self, seed):
        # a seeded grid of non-cubic voxels away from the origin; more rays
        # than one chunk and no multiple of it; origins inside occupied
        # cells, outside the grid and on its faces; still axes; slow rays
        # that reach t = 100 inside the grid; odd seeds share one origin
        rng = np.random.default_rng(seed)
        g = VoxelGridSpec(*(int(x) for x in rng.integers(1, 13, 3)),
                          origin=rng.uniform(-3, 3, 3),
                          voxel_size=rng.uniform(0.2, 1.5, 3))
        occ = rng.random(g.shape) < rng.uniform(0.05, 0.3)
        m = 2 * fixtures.RAY_CHUNK + 37
        hi = g.origin + np.array(g.shape) * g.voxel_size
        o = rng.uniform(g.origin - 3, hi + 3, (m, 3))
        face = rng.random((m, 3)) < 0.05
        o = np.where(face, np.where(rng.random((m, 3)) < 0.5, g.origin, hi), o)
        d = rng.standard_normal((m, 3))
        d[rng.random((m, 3)) < 0.2] = 0.0
        d[rng.random(m) < 0.1] *= 1e-3
        if seed % 2:
            o = o[:1]
        with np.errstate(divide="ignore", invalid="ignore"):
            want = per_step_raymarch(occ, g, o, d)
        got = fixtures.raymarch(occ, g, o, d)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(want).any() and np.isinf(want).any()

    def test_same_bytes_where_boundaries_tie(self):
        # origins at cell centers and a whole voxel per unit t along each
        # moving axis: all moving axes reach their next boundary at the
        # same t, so the tie rule picks every step's cell
        g = self.dyadic_grid()
        occ = np.random.default_rng(0).random(g.shape) < 0.1
        cells = np.indices(g.shape).reshape(3, -1).T
        s = np.indices((3, 3, 3)).reshape(3, -1).T - 1
        o = np.repeat(g.origin + (cells + 0.5) * g.voxel_size, len(s), axis=0)
        d = np.tile(s * g.voxel_size, (len(cells), 1))
        with np.errstate(invalid="ignore"):
            want = per_step_raymarch(occ, g, o, d)
        assert fixtures.raymarch(occ, g, o, d).tobytes() == want.tobytes()

    def test_longest_walk_is_not_cut_short(self):
        # center to center across an empty grid's diagonal crosses
        # nx + ny + nz - 3 boundaries before it hits the far corner cell
        g = self.dyadic_grid()
        occ = np.zeros(g.shape, bool)
        occ[-1, -1, -1] = True
        near = g.origin + 0.5 * g.voxel_size
        far = g.origin + (np.array(g.shape) - 0.5) * g.voxel_size
        t = fixtures.raymarch(occ, g, near, far - near)
        assert t.tobytes() == per_step_raymarch(occ, g, near, far - near).tobytes()
        assert 0.9 < t[0] < 1.0

    def test_working_memory_does_not_grow_with_ray_count(self):
        # bound set before measuring: on 8 chunks of rays, the peak traced
        # allocation less the (n,) output stays within 10 % + 64 KiB of
        # that on one chunk (the inputs are made before tracing starts)
        bound = lambda one: 1.10 * one + 64 * 1024
        g = VoxelGridSpec(24, 24, 8, origin=np.array([-4.8, -4.8, -1.6]))
        occ = np.random.default_rng(0).random(g.shape) < 0.02
        d = np.random.default_rng(1).standard_normal((fixtures.RAY_CHUNK, 3))

        def working_memory(dirs):
            tracemalloc.start()
            try:
                fixtures.raymarch(occ, g, np.zeros(3), dirs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - dirs.shape[0] * 8

        one = working_memory(d)
        eight = working_memory(np.tile(d, (8, 1)))
        assert eight <= bound(one), (one, eight)


class TestTexturedPlane:
    def k(self):
        return geo.Intrinsics(fx=50, fy=50, cx=24, cy=16, width=48, height=32)

    def test_zero_motion_identical(self):
        cur, prev, rel = fixtures.textured_plane_features(
            10.0, self.k(), baseline=0.0)
        assert np.array_equal(cur, prev)
        assert np.allclose(rel.translation, 0)

    def test_texture_variance_positive(self):
        cur, _, _ = fixtures.textured_plane_features(10.0, self.k(),
                                                     channels=1)
        assert cur.var() > 0

    def test_homography_warp_reproduces(self):
        k = self.k()
        d_star, b = 10.0, 2.0
        cur, prev, _ = fixtures.textured_plane_features(d_star, k,
                                                        baseline=b)
        disp = k.fx * b / d_star
        uu, vv = np.meshgrid(np.arange(k.width) + 0.5,
                             np.arange(k.height) + 0.5)
        warped = four_term_sample(prev, uu - disp, vv)
        valid = uu - disp >= 0.5
        err = np.abs(warped - cur)[:, valid]
        assert err.max() < 1e-3


class TestMakeScene:
    def test_zero_boxes_ground_only(self):
        sc = fixtures.make_scene(num_boxes=0, seed=1)
        labels = set(np.unique(sc.gt_sem)) - {FREE}
        assert labels == {11}
        assert np.all(sc.gt_occ[:, :, 1:] == 0)

    def test_seed_determinism(self):
        a = fixtures.make_scene(seed=5)
        b = fixtures.make_scene(seed=5)
        assert np.array_equal(a.gt_occ, b.gt_occ)
        assert np.array_equal(a.gt_sem, b.gt_sem)
        assert np.array_equal(a.gt_depth, b.gt_depth)
        assert np.array_equal(a.mask, b.mask)

    def test_free_occupancy_consistency(self):
        sc = fixtures.make_scene(seed=2)
        assert np.array_equal(sc.gt_sem == FREE, sc.gt_occ == 0)

    def test_depth_lands_in_occupied_cell(self):
        sc = fixtures.make_scene(seed=3)
        cell = np.max(sc.grid.voxel_size)
        occf = sc.gt_occ.reshape(-1).astype(bool)
        for cam, (k, c2e) in enumerate(sc.rig.cameras):
            uu, vv = np.meshgrid(np.arange(k.width) + 0.5,
                                 np.arange(k.height) + 0.5)
            dirs = np.stack([(uu - k.cx) / k.fx, (vv - k.cy) / k.fy,
                             np.ones_like(uu)], -1).reshape(-1, 3) \
                @ c2e.rotation.T
            t = sc.gt_depth[cam].reshape(-1)
            fin = np.isfinite(t)
            # nudge one voxel forward: must be inside (or adjacent to) a hit
            speed = np.linalg.norm(dirs[fin], axis=1)
            pts = c2e.translation + (t[fin] + 0.5 * cell / speed)[:, None] \
                * dirs[fin]
            vi = voxel_indices(pts, sc.grid)
            ok = (vi >= 0) & occf[np.clip(vi, 0, None)]
            assert ok.mean() > 0.9

    def test_box_on_optical_axis_depth(self):
        # single forward camera, wall across the whole grid at known x
        sc = fixtures.make_scene(num_boxes=0, num_cameras=1, seed=4)
        grid = sc.grid
        occ = np.zeros(grid.shape, np.uint8)
        occ[30, :, :] = 1  # near face at origin_x + 30 * 0.4 = 4.0
        k, c2e = sc.rig.cameras[0]
        t = fixtures.raymarch(occ, grid, c2e.translation, [1.0, 0.0, 0.0])
        near_face = grid.origin[0] + 30 * grid.voxel_size[0]
        assert abs(t[0] - near_face) <= grid.voxel_size[0]

    def test_marches_through_the_module_global(self, monkeypatch):
        # perfbench's set-up trace hooks msocc.fixtures.raymarch by name:
        # without this call it has no fixtures.raymarch span (a KeyError)
        calls = []
        march = fixtures.raymarch
        monkeypatch.setattr(fixtures, "raymarch",
                            lambda *a: calls.append(1) or march(*a))
        fixtures.make_scene(num_cameras=2, num_frames=1, seed=1)
        assert len(calls) == 2

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError):
            fixtures.make_scene(num_frames=0)

    def test_mask_starts_past_the_near_plane(self):
        # two voxel centers on the forward camera's axis, 0.05 m and 0.15 m
        # in front of it: only the second is past the 0.1 m near plane
        grid = VoxelGridSpec(2, 1, 1, origin=np.array([0.0, -0.05, 0.75]),
                             voxel_size=np.array([0.1, 0.1, 0.1]))
        sc = fixtures.make_scene(grid=grid, num_cameras=1, num_frames=1,
                                 num_boxes=0)
        assert sc.rig.cameras[0][1].translation.tolist() == [0.0, 0.0, 0.8]
        assert sc.mask.ravel().tolist() == [False, True]


class TestOracles:
    def test_oracle_predictions_match_gt(self):
        sc = fixtures.make_scene(seed=6)
        occ_prob, sem_prob = fixtures.oracle_predictions(sc)
        assert np.array_equal(occ_prob == 1.0, sc.gt_occ == 1)
        lab = np.argmax(sem_prob, axis=0)
        occ = sc.gt_occ == 1
        assert np.array_equal(lab[occ], sc.gt_sem[occ])

    def test_oracles_are_built_as_their_files_hold_them(self):
        # C-ordered in the dtype of the files they go to, so emit_inputs
        # neither casts nor reorders them
        sc = fixtures.make_scene(seed=6)
        built = [*fixtures.oracle_predictions(sc),
                 *fixtures.oracle_logits(sc.gt_occ, sc.gt_sem)]
        assert [a.dtype for a in built] == [np.float32] * 2 + [np.float64] * 2
        assert all(a.flags.c_contiguous for a in built)

    def test_oracle_logits_saturate_to_gt(self):
        sc = fixtures.make_scene(seed=6)
        occ_logits, sem_logits = fixtures.oracle_logits(sc.gt_occ, sc.gt_sem)
        assert np.array_equal(occ_logits > 0, sc.gt_occ == 1)
        occ = sc.gt_occ == 1
        assert np.array_equal(np.argmax(sem_logits, axis=0)[occ],
                              sc.gt_sem[occ])
