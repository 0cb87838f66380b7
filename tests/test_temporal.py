import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msocc import fixtures, temporal
from msocc import geometry as geo

from _reference import four_term_sample


@pytest.fixture
def k():
    return geo.Intrinsics(fx=50, fy=50, cx=24, cy=16, width=48, height=32)


@pytest.fixture
def frustum():
    return geo.FrustumSpec(depth_min=6.5, depth_max=14.5,
                           depth_step=1.0)


def small_grid():
    return geo.VoxelGridSpec(8, 8, 4, origin=np.array([-2.0, -2.0, -1.0]),
                             voxel_size=np.array([0.5, 0.5, 0.5]))


def sweep(cur_shape, rel, k, f, cam_to_ego=None):
    """The whole sweep at once: (D, H, W) reprojected u, v with the
    behind-camera rule applied."""
    _, h, w = cur_shape
    cam_to_ego = cam_to_ego or geo.RigidTransform.identity()
    cur_to_prev = geo.compose(geo.invert(cam_to_ego),
                              geo.compose(geo.invert(rel), cam_to_ego))
    dd, vv, uu = np.meshgrid(f.bin_centers(), np.arange(h) + 0.5,
                             np.arange(w) + 0.5, indexing="ij")
    pu, pv, pz = geo.project(cur_to_prev.apply(geo.unproject(uu, vv, dd, k)), k)
    return np.where(pz <= 0, -1.0, pu), pv


def four_term_volume(cur, prev, pu, pv):
    """Reference cost volume: one (C, D, H, W) four-term sample of prev,
    contracted with cur over channels."""
    sampled = four_term_sample(prev, pu, pv)
    return np.einsum("chw,cdhw->dhw", cur.astype(np.float64), sampled) / len(cur)


def corner_dot_volume(cur, prev, pu, pv):
    """Reference cost volume in the corner-dot order: per plane, the
    (wx * wy)-weighted dot products of cur with the four gathered corners,
    summed in corner order; invalid pixels set to +0.0; then / C."""
    c, h, w = cur.shape
    cur_t = np.ascontiguousarray(cur.reshape(c, -1).T, dtype=np.float64)
    prev_t = np.ascontiguousarray(prev.reshape(c, -1).T, dtype=np.float64)
    last = h * w - 1
    planes = []
    for u, v in zip(pu.reshape(len(pu), -1), pv.reshape(len(pv), -1)):
        x = u - 0.5
        y = v - 0.5
        eps = 1e-9
        valid = (x >= -eps) & (x <= w - 1 + eps) & (y >= -eps) & (y <= h - 1 + eps)
        x = np.clip(x, 0.0, w - 1.0)
        y = np.clip(y, 0.0, h - 1.0)
        x0c = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
        y0c = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
        fx = x - x0c
        fy = y - y0c
        base = y0c * w + x0c
        s = 0.0
        for idx, wx, wy in ((base, 1 - fx, 1 - fy), (base + 1, fx, 1 - fy),
                            (base + w, 1 - fx, fy), (base + w + 1, fx, fy)):
            corner = prev_t[np.minimum(idx, last)]
            s = s + (wx * wy) * np.einsum("pc,pc->p", cur_t, corner)
        planes.append(np.where(valid, s, 0.0))
    return np.stack(planes).reshape(-1, h, w) / c


def assert_close_to_four_term(got, want):
    """The corner-dot sum order against the four-term sample: within 1e-12
    of the largest value, the same argmax and the same exact zeros."""
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(np.argmax(got, axis=0), np.argmax(want, axis=0))
    assert np.array_equal(got == 0, want == 0)


def rig_camera():
    """A camera looking along ego +y, mounted 1.5 m up and 0.5 m aside."""
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    return geo.RigidTransform(
        geo.RigidTransform.from_yaw(0.3).rotation @ axes, (0.5, 0.0, 1.5))


class TestCostVolume:
    def test_zero_parallax_degeneracy(self, k, frustum):
        rng = np.random.default_rng(0)
        cur = rng.standard_normal((4, 32, 48))
        cv = temporal.build_cost_volume(cur, cur,
                                        geo.RigidTransform.identity(),
                                        k, frustum)
        want = (cur ** 2).mean(axis=0)
        for d in range(frustum.num_bins):
            assert np.allclose(cv[d], want, atol=1e-12)

    def test_plane_fixture_argmax(self, k, frustum):
        cur, prev, rel = fixtures.textured_plane_features(10.0, k)
        cv = temporal.build_cost_volume(cur, prev, rel, k, frustum)
        am = np.argmax(cv, axis=0)
        max_shift = k.fx * 2.0 / frustum.bin_centers().min()
        interior = np.zeros((32, 48), bool)
        interior[:, int(np.ceil(max_shift)) + 1:] = True
        true_bin = int(np.argmin(np.abs(frustum.bin_centers() - 10.0)))
        assert (am[interior] == true_bin).mean() >= 0.95

    def test_out_of_bounds_scores_zero(self, k, frustum):
        rng = np.random.default_rng(1)
        # cur * prev < 0, so a zero made by multiplying would be -0.0
        cur = rng.standard_normal((2, 32, 48)) + 5.0
        prev = rng.standard_normal((2, 32, 48)) - 5.0
        # huge lateral motion pushes every reprojection off the image
        rel = geo.RigidTransform.from_translation([1e5, 0.0, 0.0])
        cv = temporal.build_cost_volume(cur, prev, rel, k, frustum)
        assert np.all(cv == 0.0) and not np.signbit(cv).any()

    def test_behind_camera_scores_zero(self, k, frustum):
        rng = np.random.default_rng(3)
        cur = rng.standard_normal((2, 32, 48)) + 5.0
        prev = rng.standard_normal((2, 32, 48)) - 5.0
        # the previous camera sits 9.5 m ahead, so the planes at 7-9 m lie
        # behind it
        rel = geo.RigidTransform.from_translation([0.0, 0.0, 9.5])
        behind = frustum.bin_centers() < 9.5
        assert 0 < behind.sum() < frustum.num_bins
        # unforced, their mirrored projections would partly land inside
        dd, vv, uu = np.meshgrid(frustum.bin_centers()[behind],
                                 np.arange(32) + 0.5, np.arange(48) + 0.5,
                                 indexing="ij")
        mu, mv, _ = geo.project(
            geo.invert(rel).apply(geo.unproject(uu, vv, dd, k)), k)
        assert ((mu > 0.5) & (mu < 47.5) & (mv > 0.5) & (mv < 31.5)).any()
        cv = temporal.build_cost_volume(cur, prev, rel, k, frustum)
        assert np.all(cv[behind] == 0.0) and (cv[~behind] != 0).any()
        assert not np.signbit(cv[cv == 0]).any()
        assert_close_to_four_term(
            cv, four_term_volume(cur, prev, *sweep(cur.shape, rel, k, frustum)))

    def test_bilinear_in_prev_features(self, k, frustum):
        rng = np.random.default_rng(2)
        cur = rng.standard_normal((3, 32, 48))
        prev = rng.standard_normal((3, 32, 48))
        rel = geo.RigidTransform.from_translation([0.7, 0.1, 0.0])
        a = temporal.build_cost_volume(cur, 2.5 * prev, rel, k, frustum)
        b = 2.5 * temporal.build_cost_volume(cur, prev, rel, k, frustum)
        assert np.allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_corner_dot_formula(self, k, frustum, dtype):
        rng = np.random.default_rng(9)
        cur = rng.standard_normal((5, 32, 48)).astype(dtype)
        prev = rng.standard_normal((5, 32, 48)).astype(dtype)
        rel = geo.RigidTransform.from_yaw(0.04, (0.8, 0.3, 0.0))
        want = corner_dot_volume(cur, prev,
                                 *sweep(cur.shape, rel, k, frustum, rig_camera()))
        got = temporal.build_cost_volume(cur, prev, rel, k, frustum,
                                         cam_to_ego=rig_camera())
        assert (want != 0).mean() > 0.5
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_all_planes_formula(self, k, frustum, dtype):
        rng = np.random.default_rng(9)
        cur = rng.standard_normal((5, 32, 48)).astype(dtype)
        prev = rng.standard_normal((5, 32, 48)).astype(dtype)
        rel = geo.RigidTransform.from_yaw(0.04, (0.8, 0.3, 0.0))
        want = four_term_volume(cur, prev,
                                *sweep(cur.shape, rel, k, frustum, rig_camera()))
        got = temporal.build_cost_volume(cur, prev, rel, k, frustum,
                                         cam_to_ego=rig_camera())
        assert (want != 0).mean() > 0.5
        assert_close_to_four_term(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hw", [(9, 13), (1, 13), (9, 1), (1, 1)])
    def test_matches_four_term_sample(self, dtype, hw):
        h, w = hw
        rng = np.random.default_rng(h * 100 + w)
        cur = rng.standard_normal((6, h, w)).astype(dtype)
        prev = rng.standard_normal((6, h, w)).astype(dtype)
        k = geo.Intrinsics(fx=50, fy=50, cx=w / 2, cy=h / 2, width=w, height=h)
        f = geo.FrustumSpec(depth_min=6.5, depth_max=14.5)
        # on a 1-pixel axis every corner clamps onto its one row or column,
        # and only reprojections onto its center line are valid: each motion
        # keeps that line and moves some pixels off the image
        rel = {(9, 13): geo.RigidTransform.from_yaw(0.04, (0.8, 0.3, 0.0)),
               (1, 13): geo.RigidTransform.from_translation([0.7, 0.0, 0.0]),
               (9, 1): geo.RigidTransform.from_translation([0.0, 0.7, 0.0]),
               (1, 1): geo.RigidTransform.from_translation([0.0, 0.0, 9.5]),
               }[hw]
        got = temporal.build_cost_volume(cur, prev, rel, k, f)
        want = four_term_volume(cur, prev, *sweep(cur.shape, rel, k, f))
        assert (got == 0).any() and (got != 0).any()
        assert_close_to_four_term(got, want)

    def test_memory(self):
        # stereo scale: 64 channels, 64x176 pixels, one depth plane
        k = geo.Intrinsics(fx=88, fy=88, cx=88, cy=32, width=176, height=64)
        f = geo.FrustumSpec(depth_min=10.0, depth_max=11.0)
        assert f.num_bins == 1
        rng = np.random.default_rng(11)
        cur = rng.standard_normal((64, 64, 176))
        prev = rng.standard_normal((64, 64, 176))
        rel = geo.RigidTransform.from_yaw(0.02, (0.5, 0.0, 0.0))
        tracemalloc.start()
        try:
            temporal.build_cost_volume(cur, prev, rel, k, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # peak in units of one (C, H, W) float64 map: the channel-last
        # copies of cur and prev, one corner gather buffer, and per-pixel
        # vectors
        assert peak <= 3.5 * cur.nbytes

    def test_memory_independent_of_depth_bins(self):
        # stereo scale: 64 channels, 64x176 pixels, 59 depth bins
        k = geo.Intrinsics(fx=88, fy=88, cx=88, cy=32, width=176, height=64)
        f = geo.FrustumSpec(depth_min=1.0, depth_max=60.0)
        rng = np.random.default_rng(10)
        cur = rng.standard_normal((64, 64, 176))
        prev = rng.standard_normal((64, 64, 176))
        rel = geo.RigidTransform.from_yaw(0.02, (0.5, 0.0, 0.0))
        tracemalloc.start()
        try:
            temporal.build_cost_volume(cur, prev, rel, k, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # peak in units of one (C, H, W) float64 map
        assert peak <= 20 * cur.nbytes

    def test_lattice_must_match_camera(self, k, frustum):
        # 32x48 features against the camera at twice their stride
        with pytest.raises(ValueError, match="32x48.*16x24"):
            temporal.build_cost_volume(np.zeros((2, 32, 48)),
                                       np.zeros((2, 32, 48)),
                                       geo.RigidTransform.identity(),
                                       k.scaled(2), frustum)

    def test_shape_mismatch(self, k, frustum):
        with pytest.raises(ValueError):
            temporal.build_cost_volume(np.zeros((2, 32, 48)),
                                       np.zeros((2, 32, 47)),
                                       geo.RigidTransform.identity(),
                                       k, frustum)


def moved(pu, pv, h, w):
    """(D - 1, H * W) mask of the pixels whose clamped top-left corner
    differs from the plane before: the rows a reusing sweep recomputes."""
    x = np.clip(pu.reshape(len(pu), -1) - 0.5, 0.0, w - 1.0)
    y = np.clip(pv.reshape(len(pv), -1) - 0.5, 0.0, h - 1.0)
    x0c = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
    y0c = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
    base = y0c * w + x0c
    return base[1:] != base[:-1]


def assert_matches_corner_dot(cur, prev, rel, k, f, cam_to_ego=None):
    want = corner_dot_volume(cur, prev, *sweep(cur.shape, rel, k, f, cam_to_ego))
    got = temporal.build_cost_volume(cur, prev, rel, k, f, cam_to_ego=cam_to_ego)
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestCornerDotReuse:
    """build_cost_volume keeps each pixel's four corner dots until its
    corner base moves; every regime of that reuse gives the per-plane
    reference's bytes."""

    def features(self, dtype, c, h, w, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((c, h, w)).astype(dtype),
                rng.standard_normal((c, h, w)).astype(dtype))

    def test_identity_motion_reuses_every_row(self, frustum, dtype):
        # with a power-of-two focal length the identity sweep reprojects
        # each pixel center exactly onto itself, so no base flips on
        # roundoff
        k = geo.Intrinsics(fx=64, fy=64, cx=24, cy=16, width=48, height=32)
        cur, prev = self.features(dtype, 5, 32, 48, 20)
        rel = geo.RigidTransform.identity()
        assert not moved(*sweep(cur.shape, rel, k, frustum), 32, 48).any()
        cv = assert_matches_corner_dot(cur, prev, rel, k, frustum)
        assert (cv != 0).all()

    def test_partial_move(self, k, frustum, dtype):
        cur, prev = self.features(dtype, 5, 32, 48, 21)
        rel = geo.RigidTransform.from_yaw(0.01, (0.3, 0.2, 0.0))
        share = moved(*sweep(cur.shape, rel, k, frustum, rig_camera()),
                      32, 48).mean()
        assert 0.01 <= share <= 0.5
        assert_matches_corner_dot(cur, prev, rel, k, frustum, rig_camera())

    def test_most_rows_move(self, k, dtype):
        # fine bins and a 3 m baseline: more than half the bases move on
        # some planes and fewer on others, so both ways of recomputing run
        cur, prev = self.features(dtype, 5, 32, 48, 22)
        f = geo.FrustumSpec(depth_min=4.0, depth_max=9.0, depth_step=0.25)
        rel = geo.RigidTransform.from_yaw(0.02, (3.0, 0.0, 0.0))
        share = moved(*sweep(cur.shape, rel, k, f, rig_camera()),
                      32, 48).mean(axis=1)
        assert share.max() > 0.5 > share.min()
        assert_matches_corner_dot(cur, prev, rel, k, f, rig_camera())

    @pytest.mark.parametrize("hw", [(1, 13), (9, 1), (1, 1), (32, 48)])
    def test_degenerate_lattices_and_behind_camera(self, dtype, hw):
        h, w = hw
        cur, prev = self.features(dtype, 6, h, w, h * 100 + w)
        k = geo.Intrinsics(fx=50, fy=50, cx=w / 2, cy=h / 2, width=w, height=h)
        f = geo.FrustumSpec(depth_min=6.5, depth_max=14.5)
        # the previous camera sits 9.5 m ahead, so the planes at 7-9 m lie
        # behind it; the sideways part keeps a 1-pixel axis's center line
        t = {(1, 13): (0.7, 0.0, 9.5), (9, 1): (0.0, 0.7, 9.5),
             (1, 1): (0.0, 0.0, 9.5), (32, 48): (0.7, 0.3, 9.5)}[hw]
        rel = geo.RigidTransform.from_translation(t)
        behind = f.bin_centers() < 9.5
        assert 0 < behind.sum() < f.num_bins
        cv = assert_matches_corner_dot(cur, prev, rel, k, f)
        assert np.all(cv[behind] == 0.0) and (cv[~behind] != 0).any()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hw=st.tuples(st.integers(1, 10), st.integers(1, 10)),
       channels=st.integers(1, 6),
       yaw=st.floats(-0.2, 0.2),
       t=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       depth_min=st.floats(0.5, 8.0),
       depth_step=st.floats(0.05, 2.0),
       bins=st.integers(1, 12),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2 ** 16))
def test_reuse_matches_corner_dot_property(hw, channels, yaw, t, depth_min,
                                           depth_step, bins, dtype, seed):
    h, w = hw
    rng = np.random.default_rng(seed)
    cur = rng.standard_normal((channels, h, w)).astype(dtype)
    prev = rng.standard_normal((channels, h, w)).astype(dtype)
    k = geo.Intrinsics(fx=8.0 * w, fy=8.0 * w, cx=w / 2, cy=h / 2,
                       width=w, height=h)
    f = geo.FrustumSpec(depth_min=depth_min,
                        depth_max=depth_min + (bins - 0.5) * depth_step,
                        depth_step=depth_step)
    assert_matches_corner_dot(cur, prev, geo.RigidTransform.from_yaw(yaw, t),
                              k, f, rig_camera())


class TestRescaleCostVolume:
    def test_constant(self):
        cv = np.full((5, 8, 16), 3.25)
        for s in (8, 16, 32):
            out = temporal.rescale_cost_volume(cv, s)
            assert out.shape == (5, 32 // s, 64 // s)
            assert np.allclose(out, 3.25)

    def test_block_mean(self):
        cv = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = temporal.rescale_cost_volume(cv, 8)
        assert out.shape == (1, 1, 1)
        assert np.isclose(out[0, 0, 0], 2.5)

    def test_composition(self):
        rng = np.random.default_rng(3)
        cv = rng.standard_normal((6, 16, 32))
        once = temporal.rescale_cost_volume(cv, 16)
        # the stride-8 volume pooled by 2 once more
        twice = temporal.rescale_cost_volume(cv, 8).reshape(
            6, 4, 2, 8, 2).mean(axis=(2, 4))
        assert np.allclose(once, twice, atol=1e-12)

    def test_camera_stack_pools_each_camera_alone(self):
        # an (N, D, H, W) stack pools to the bytes of each camera's volume
        cv = np.random.default_rng(4).standard_normal((3, 5, 8, 16))
        cv = cv.astype(np.float32)
        for s in (8, 16, 32):
            out = temporal.rescale_cost_volume(cv, s)
            assert out.shape == (3, 5, 32 // s, 64 // s)
            for cam in range(3):
                want = temporal.rescale_cost_volume(cv[cam], s)
                assert out[cam].tobytes() == want.tobytes()

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            temporal.rescale_cost_volume(np.zeros((2, 3, 4)), 8)
        with pytest.raises(ValueError):
            temporal.rescale_cost_volume(np.zeros((2, 4, 4)), 6)


def trilinear_oracle(prev, grid, rel):
    """Scalar 8-neighbor weighted sum per output cell."""
    inv = geo.invert(rel)
    c = prev.shape[0]
    out = np.zeros_like(prev, dtype=np.float64)
    n = np.array(grid.shape)
    for ix in range(grid.nx):
        for iy in range(grid.ny):
            for iz in range(grid.nz):
                center = grid.origin + (np.array([ix, iy, iz]) + 0.5) \
                    * grid.voxel_size
                src = inv.apply(center)
                cc = (src - grid.origin) / grid.voxel_size - 0.5
                lo = np.floor(cc).astype(int)
                fr = cc - lo
                acc = np.zeros(c)
                for b in range(8):
                    off = np.array([(b >> 2) & 1, (b >> 1) & 1, b & 1])
                    cell = lo + off
                    if ((cell < 0) | (cell >= n)).any():
                        continue
                    wgt = np.prod(np.where(off == 1, fr, 1 - fr))
                    acc += wgt * prev[:, cell[0], cell[1], cell[2]]
                out[:, ix, iy, iz] = acc
    return out


def eight_corner_warp(prev, rel, grid, mode):
    """Reference warp: one gather per (source cell, weight) corner over the
    (N, 3) continuous cell coordinates, each block cast to float64."""
    squeeze = prev.ndim == 3
    if squeeze:
        prev = prev[None]
    c = prev.shape[0]
    src = geo.invert(rel).apply(grid.cell_centers().reshape(-1, 3))
    cc = (src - grid.origin) / grid.voxel_size - 0.5
    if mode == "nearest":
        corners = [(np.rint(cc).astype(np.int64), 1.0)]
    else:
        lo = np.floor(cc).astype(np.int64)
        frac = cc - lo
        corners = ((lo + off, np.prod(np.where(off, frac, 1.0 - frac), axis=-1))
                   for off in itertools.product((0, 1), repeat=3))
    flat_prev = prev.reshape(c, -1)
    out = np.zeros((c, len(cc)))
    for cell, wgt in corners:
        inside = ((cell >= 0) & (cell < grid.shape)).all(axis=-1)
        flat = np.ravel_multi_index(cell.T, grid.shape, mode="clip")
        out += flat_prev[:, flat].astype(np.float64) * (wgt * inside)
    out = out.reshape(c, *grid.shape).astype(prev.dtype, copy=False)
    return out[0] if squeeze else out


def random_motion(rng):
    """Yaw, roll, pitch and a 3-D translation."""
    yaw, roll, pitch = rng.uniform(-0.3, 0.3, 3)
    cr, sr, cp, sp = np.cos(roll), np.sin(roll), np.cos(pitch), np.sin(pitch)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return geo.RigidTransform(geo.RigidTransform.from_yaw(yaw).rotation @ rx @ ry,
                              rng.uniform(-1.0, 1.0, 3))


class TestWarpVoxelGrid:
    def test_identity_nearest_exact(self):
        g = small_grid()
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, *g.shape))
        out = temporal.warp_voxel_grid(a, geo.RigidTransform.identity(), g,
                                       mode="nearest")
        assert np.array_equal(out, a)

    def test_identity_trilinear_exact(self):
        g = small_grid()
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, *g.shape))
        out = temporal.warp_voxel_grid(a, geo.RigidTransform.identity(), g)
        assert np.allclose(out, a, atol=1e-12)

    def test_lattice_aligned_shift(self):
        g = small_grid()
        rng = np.random.default_rng(6)
        a = rng.standard_normal((1, *g.shape))
        rel = geo.RigidTransform.from_translation([g.voxel_size[0], 0, 0])
        out = temporal.warp_voxel_grid(a, rel, g, mode="nearest")
        assert np.array_equal(out[:, 1:], a[:, :-1])
        assert np.all(out[:, 0] == 0)

    def test_roundtrip_interior(self):
        g = small_grid()
        rng = np.random.default_rng(7)
        a = rng.standard_normal((1, *g.shape))
        rel = geo.RigidTransform.from_translation([g.voxel_size[0],
                                                   -g.voxel_size[1], 0])
        back = temporal.warp_voxel_grid(
            temporal.warp_voxel_grid(a, rel, g, mode="nearest"),
            geo.invert(rel), g, mode="nearest")
        assert np.array_equal(back[:, 1:-1, 1:-1, :], a[:, 1:-1, 1:-1, :])

    @pytest.mark.parametrize("seed", range(5))
    def test_trilinear_matches_oracle(self, seed):
        g = small_grid()
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, *g.shape))
        rel = geo.RigidTransform.from_yaw(rng.uniform(-0.2, 0.2),
                                          rng.uniform(-0.3, 0.3, 3))
        out = temporal.warp_voxel_grid(a, rel, g)
        want = trilinear_oracle(a, g, rel)
        assert np.allclose(out, want, atol=1e-6)

    @pytest.mark.parametrize("mode", ["nearest", "trilinear"])
    def test_single_channel_grid(self, mode):
        g = small_grid()
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, *g.shape)).astype(np.float32)
        rel = geo.RigidTransform.from_yaw(0.15, (0.2, -0.1, 0.1))
        out = temporal.warp_voxel_grid(a[0], rel, g, mode=mode)
        assert out.shape == g.shape and out.dtype == np.float32
        assert np.array_equal(out,
                              temporal.warp_voxel_grid(a, rel, g, mode=mode)[0])

    @pytest.mark.parametrize("mode", ["nearest", "trilinear"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    @pytest.mark.parametrize("channels", [None, 3], ids=["3d", "4d"])
    def test_matches_eight_corner_loop(self, mode, dtype, channels):
        rng = np.random.default_rng(12)
        for _ in range(8):
            g = geo.VoxelGridSpec(*rng.integers(3, 10, 2), rng.integers(2, 6),
                                  origin=rng.uniform(-3.0, 0.0, 3),
                                  voxel_size=rng.uniform(0.2, 0.8, 3))
            shape = g.shape if channels is None else (channels, *g.shape)
            a = (rng.standard_normal(shape) * 50).astype(dtype)
            rel = random_motion(rng)
            got = temporal.warp_voxel_grid(a, rel, g, mode=mode)
            want = eight_corner_warp(a, rel, g, mode)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_trilinear_memory(self):
        g = geo.VoxelGridSpec(64, 64, 16, origin=np.array([-16.0, -16.0, -2.0]),
                              voxel_size=np.array([0.5, 0.5, 0.4]))
        a = np.random.default_rng(13).standard_normal((16, *g.shape))
        rel = geo.RigidTransform.from_yaw(0.05, (0.7, -0.3, 0.0))
        n, block = a[0].size, temporal.WARP_BLOCK
        # the output in the input's dtype, the (N, 3) float64 source
        # coordinates, and per block the (C, block) gather, sum and product
        # buffers plus 32 block-long arrays for the per-axis options and
        # their temporaries: no float64 (C, N) sum and no whole-grid options
        bound = (a.nbytes + 3 * n * 8 + len(a) * (a.itemsize + 16) * block
                 + 32 * 8 * block)
        tracemalloc.start()
        try:
            temporal.warp_voxel_grid(a, rel, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_bad_mode(self):
        g = small_grid()
        with pytest.raises(ValueError):
            temporal.warp_voxel_grid(np.zeros((1, *g.shape)),
                                     geo.RigidTransform.identity(), g,
                                     mode="cubic")


class TestStackTemporal:
    def test_single(self):
        a = np.ones((2, 3, 3, 2))
        assert np.array_equal(temporal.stack_temporal([a]), a)

    def test_two_blocks(self):
        a = np.zeros((2, 3, 3, 2))
        b = np.ones((2, 3, 3, 2))
        out = temporal.stack_temporal([a, b])
        assert np.array_equal(out[:2], a)
        assert np.array_equal(out[2:], b)

    def test_k8_roundtrip(self):
        rng = np.random.default_rng(8)
        grids = [rng.standard_normal((4, 3, 3, 2)) for _ in range(8)]
        # a copy of the list, which stack_temporal empties
        out = temporal.stack_temporal(list(grids))
        assert out.shape[0] == 32
        for i, g in enumerate(grids):
            assert np.array_equal(out[4 * i:4 * (i + 1)], g)

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32),
                                        (np.float32, np.float64),
                                        (np.uint8, np.int32)])
    def test_bytes_and_dtype_of_concatenate(self, dtypes):
        rng = np.random.default_rng(4)
        grids = [(rng.standard_normal((2, 3, 3, 2)) * 50).astype(d)
                 for d in dtypes]
        want = np.concatenate(grids, axis=0)
        out = temporal.stack_temporal(list(grids))
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    def test_empties_its_list_and_frees_each_grid(self):
        tracemalloc.start()
        try:
            grids = [np.full((4, 16, 16, 16), float(i)) for i in range(3)]
            held = tracemalloc.get_traced_memory()[0]
            out = temporal.stack_temporal(grids)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grids == []
        assert [out[4 * i:4 * (i + 1)].min() for i in range(3)] == [0, 1, 2]
        grid = out.nbytes // 3
        # the stack is the one allocation, and no grid outlives the call:
        # the stack holds what the three grids held
        assert peak - held <= out.nbytes + grid // 16
        assert current - held <= grid // 16

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS as VmHWM")
    def test_rss_peaks_at_the_stack_plus_one_grid(self):
        # The stack's pages are touched as each grid is copied in, and each
        # grid's 16 MiB block is returned once copied, so the peak RSS
        # rises by one grid above the two held before the call; copying
        # with both grids kept, as np.concatenate does, rises by two.
        # VmHWM is the peak of the child's own memory: ru_maxrss would
        # start at this process's peak, which it inherits across fork.
        code = (
            "import numpy as np\n"
            "from msocc import temporal\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:')) * 1024\n"
            "grids = [np.ones((2, 1 << 20)) for _ in range(2)]\n"
            "before = peak()\n"
            "temporal.stack_temporal(grids)\n"
            "print(peak() - before)\n")
        src = str(Path(temporal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        rise = int(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout)
        grid = 16 << 20
        assert rise <= 1.5 * grid

    def test_no_grids_rejected(self):
        with pytest.raises(ValueError, match="need at least one grid"):
            temporal.stack_temporal([])

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            temporal.stack_temporal([np.zeros((2, 3, 3, 2)),
                                     np.zeros((2, 3, 3, 3))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(*[st.integers(1, 6)] * 3),
       channels=st.integers(1, 3),
       origin=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
       voxel=st.tuples(*[st.floats(0.05, 2.0)] * 3),
       mode=st.sampled_from(["nearest", "trilinear"]),
       dtype=st.sampled_from([np.float64, np.float32]),
       seed=st.integers(0, 2 ** 16))
def test_identity_warp_returns_input_property(dims, channels, origin, voxel,
                                              mode, dtype, seed):
    g = geo.VoxelGridSpec(*dims, origin=np.array(origin),
                          voxel_size=np.array(voxel))
    a = np.random.default_rng(seed).standard_normal((channels, *dims))
    a = a.astype(dtype)
    out = temporal.warp_voxel_grid(a, geo.RigidTransform.identity(), g,
                                   mode=mode)
    assert out.dtype == a.dtype and out.shape == a.shape
    if mode == "nearest":
        assert np.array_equal(out, a)
    else:
        # a sample lands within |origin| / voxel * 1e-15 cells of its
        # center, so each of the 8 corner weights is off by less than that
        assert np.allclose(out, a, rtol=0, atol=1e-10 * np.abs(a).max())
