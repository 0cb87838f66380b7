import numpy as np
import pytest

from msocc import geometry as geo
from msocc.lift_splat import (build_pooling_index, lift_and_pool,
                              normalize_depth_logits)


def naive_scatter(rig, f, g, features, depths):
    """Brute-force triple loop over (cam, pixel, depth bin); the oracle for
    both the pooling index and lift_and_pool."""
    c = features.shape[1]
    out = np.zeros((c, g.nx, g.ny, g.nz))
    entries = []
    for cam, (k, cam_to_ego) in enumerate(rig.cameras):
        for di, depth in enumerate(f.bin_centers()):
            for v in range(f.feat_height):
                for u in range(f.feat_width):
                    p = cam_to_ego.apply(
                        geo.unproject(u + 0.5, v + 0.5, depth, k))
                    cell = np.floor((p - g.origin) / g.voxel_size).astype(int)
                    if ((cell < 0) | (cell >= [g.nx, g.ny, g.nz])).any():
                        continue
                    off = (di * f.feat_height + v) * f.feat_width + u
                    vox = (cell[0] * g.ny + cell[1]) * g.nz + cell[2]
                    entries.append((cam, off, vox))
                    out[:, cell[0], cell[1], cell[2]] += \
                        depths[cam, di, v, u] * features[cam, :, v, u]
    return out, entries


def decode(idx, f):
    """(camera, point offset) of each entry, from its flat depth index."""
    return np.divmod(idx.depth_index, f.num_bins * f.feat_height * f.feat_width)


def small_setup(seed, n_cams=2, ch=3, h=4, w=8, d=6, grid_n=(10, 10, 4)):
    rng = np.random.default_rng(seed)
    cams = []
    for i in range(n_cams):
        k = geo.Intrinsics(fx=6.0, fy=6.0, cx=w / 2, cy=h / 2,
                           width=w, height=h)
        t = geo.RigidTransform.from_yaw(2 * np.pi * i / max(n_cams, 1),
                                        rng.uniform(-0.5, 0.5, 3))
        cams.append((k, t))
    rig = geo.CameraRig(tuple(cams))
    f = geo.FrustumSpec(w, h, 1, depth_min=0.5, depth_max=0.5 + d,
                        depth_step=1.0)
    g = geo.VoxelGridSpec(*grid_n, origin=np.array([-2.0, -2.0, -1.0]),
                          voxel_size=np.array([0.4, 0.4, 0.5]))
    features = rng.standard_normal((n_cams, ch, h, w))
    depths = np.stack([normalize_depth_logits(
        rng.standard_normal((d, h, w))) for _ in range(n_cams)])
    return rig, f, g, features, depths


class TestNormalizeDepthLogits:
    def test_uniform(self):
        out = normalize_depth_logits(np.zeros((4, 2, 2)))
        assert np.allclose(out, 0.25)

    def test_saturation(self):
        z = np.zeros((4, 1, 1))
        z[2] = 1000.0
        out = normalize_depth_logits(z)
        assert abs(out[2, 0, 0] - 1.0) < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        out = normalize_depth_logits(rng.standard_normal((7, 5, 3)) * 10)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert (out >= 0).all()

    def test_cameras_at_once_equal_stacked(self):
        rng = np.random.default_rng(1)
        logits = (rng.standard_normal((3, 7, 5, 4)) * 10).astype(np.float32)
        want = np.stack([normalize_depth_logits(z) for z in logits])
        assert normalize_depth_logits(logits).tobytes() == want.tobytes()


class TestBuildPoolingIndex:
    def test_camera_outside_grid(self):
        k = geo.Intrinsics(fx=5, fy=5, cx=2, cy=2, width=4, height=4)
        rig = geo.CameraRig(((k, geo.RigidTransform.from_translation(
            [1000.0, 0, 0])),))
        f = geo.FrustumSpec(4, 4, 1, depth_min=0.5, depth_max=3.5)
        g = geo.VoxelGridSpec(4, 4, 4, origin=np.array([-1.0, -1.0, -1.0]),
                              voxel_size=np.array([0.5, 0.5, 0.5]))
        idx = build_pooling_index(rig, f, g)
        assert idx.num_entries == 0

    def test_single_voxel_encloses_everything(self):
        k = geo.Intrinsics(fx=5, fy=5, cx=2, cy=2, width=4, height=4)
        rig = geo.CameraRig(((k, geo.RigidTransform.identity()),))
        f = geo.FrustumSpec(4, 4, 1, depth_min=0.5, depth_max=3.5)
        g = geo.VoxelGridSpec(1, 1, 1, origin=np.array([-50.0, -50.0, -50.0]),
                              voxel_size=np.array([100.0, 100.0, 100.0]))
        idx = build_pooling_index(rig, f, g)
        assert idx.num_entries == f.num_bins * 16
        assert idx.target_vox.tolist() == [0] * idx.num_entries

    def test_entry_multiset_matches_bruteforce(self):
        rig, f, g, features, depths = small_setup(11)
        idx = build_pooling_index(rig, f, g)
        _, entries = naive_scatter(rig, f, g, features, depths)
        cams, offs = decode(idx, f)
        got = sorted(zip(idx.target_vox, cams, offs))
        want = sorted((vox, cam, off) for cam, off, vox in entries)
        assert got == want
        n_pix = f.feat_height * f.feat_width
        assert (idx.pixel_index == cams * n_pix + offs % n_pix).all()

    def test_depth_index_strictly_increasing(self):
        rig, f, g, *_ = small_setup(12)
        idx = build_pooling_index(rig, f, g)
        assert idx.num_entries > 0
        assert (np.diff(idx.depth_index) > 0).all()


class TestLiftAndPool:
    def test_one_hot_depth_single_pixel(self):
        rig, f, g, features, _ = small_setup(13, n_cams=1)
        features = np.zeros_like(features)
        features[0, :, 2, 3] = [1.0, 2.0, 3.0]
        depths = np.zeros((1, f.num_bins, f.feat_height, f.feat_width))
        depths[0, 4, 2, 3] = 1.0
        # make every other pixel a valid distribution on bin 0
        depths[0, 0] = 1.0
        depths[0, 0, 2, 3] = 0.0
        idx = build_pooling_index(rig, f, g)
        out = lift_and_pool(features, depths, idx)
        nz = np.nonzero(out[0])
        assert len(nz[0]) <= 1
        if len(nz[0]) == 1:
            assert np.allclose(out[:, nz[0][0], nz[1][0], nz[2][0]],
                               [1.0, 2.0, 3.0])

    def test_uniform_depth_splits_mass(self):
        rig, f, g, features, _ = small_setup(14, n_cams=1)
        features = np.zeros_like(features)
        features[0, 0, 1, 1] = 1.0
        depths = np.full((1, f.num_bins, f.feat_height, f.feat_width),
                         1.0 / f.num_bins)
        idx = build_pooling_index(rig, f, g)
        out = lift_and_pool(features, depths, idx)
        # in-bounds bins of that pixel each carry 1/D
        k, c2e = rig.cameras[0]
        pts = c2e.apply(geo.unproject(1.5, 1.5, f.bin_centers(), k))
        n_in = int((geo.voxel_indices(pts, g) >= 0).sum())
        assert np.isclose(out[0].sum(), n_in / f.num_bins)

    def test_matches_bruteforce(self):
        rig, f, g, features, depths = small_setup(15)
        idx = build_pooling_index(rig, f, g)
        out = lift_and_pool(features, depths, idx)
        want, _ = naive_scatter(rig, f, g, features, depths)
        assert np.allclose(out, want, rtol=1e-6, atol=1e-12)

    def test_mass_conservation(self):
        rig, f, g, features, depths = small_setup(16)
        idx = build_pooling_index(rig, f, g)
        out = lift_and_pool(features, depths, idx)
        h, w = f.feat_height, f.feat_width
        contrib = 0.0
        for cam, off in zip(*decode(idx, f)):
            d, p = divmod(off, h * w)
            contrib += depths[cam, d, p // w, p % w] \
                * features[cam, :, p // w, p % w].sum()
        assert np.isclose(out.sum(), contrib, rtol=1e-6)

    def test_linearity(self):
        rig, f, g, features, depths = small_setup(17)
        idx = build_pooling_index(rig, f, g)
        a = lift_and_pool(3.5 * features, depths, idx)
        b = 3.5 * lift_and_pool(features, depths, idx)
        assert np.allclose(a, b, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        rig, f, g, features, depths = small_setup(18)
        idx = build_pooling_index(rig, f, g)
        with pytest.raises(ValueError):
            lift_and_pool(features[:, :, :-1], depths, idx)
        with pytest.raises(ValueError):
            lift_and_pool(features, depths[:, :-1], idx)


def sorted_index_lift(rig, f, g, features, depths):
    """Reference lift: a pooling index stable-sorted by target voxel (ties
    in camera, offset order) and a 2-D (camera, offset) gather kernel. The
    frustum-order index must give the same bytes. Returns the float64
    accumulator."""
    cams, offs, targets = [], [], []
    for cam_id, (k, cam_to_ego) in enumerate(rig.cameras):
        vox = geo.voxel_indices(geo.frustum_points(k, f, cam_to_ego), g)
        keep = vox >= 0
        cams.append(np.full(int(keep.sum()), cam_id, dtype=np.int32))
        offs.append(np.nonzero(keep)[0].astype(np.int64))
        targets.append(vox[keep])
    order = np.argsort(np.concatenate(targets), kind="stable")
    cam_ids = np.concatenate(cams)[order]
    point_offsets = np.concatenate(offs)[order]
    target_vox = np.concatenate(targets)[order]

    n_cams, c_chan = features.shape[:2]
    h, w = f.feat_height, f.feat_width
    depth_flat = depths.reshape(n_cams, -1).astype(np.float64)
    weights = depth_flat[cam_ids, point_offsets]
    pixel_offsets = point_offsets % (h * w)
    feat_flat = features.reshape(n_cams, c_chan, h * w).astype(np.float64)
    out = np.zeros((c_chan, g.num_voxels))
    for c in range(c_chan):
        contrib = weights * feat_flat[cam_ids, c, pixel_offsets]
        out[c] = np.bincount(target_vox, weights=contrib, minlength=g.num_voxels)
    return out.reshape(c_chan, *g.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matches_sorted_index(dtype):
    nonempty = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        rig, f, g, features, depths = small_setup(
            seed + 2000, n_cams=int(rng.integers(1, 4)),
            ch=int(rng.integers(1, 5)), h=int(rng.integers(2, 9)),
            w=int(rng.integers(2, 13)), d=int(rng.integers(1, 9)))
        features = features.astype(dtype)
        idx = build_pooling_index(rig, f, g)
        nonempty += idx.num_entries > 0
        out = lift_and_pool(features, depths, idx)
        want = sorted_index_lift(rig, f, g, features, depths)
        assert out.dtype == np.float64
        assert out.tobytes() == want.tobytes()
    assert nonempty >= 10
