import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import meshgrid_cell_centers, meshgrid_frustum_points
from msocc import geometry as geo


@pytest.fixture
def k():
    return geo.Intrinsics(fx=400.0, fy=410.0, cx=320.0, cy=240.0,
                          width=640, height=480)


def random_transform(rng):
    a = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return geo.RigidTransform(q, rng.standard_normal(3))


class TestUnproject:
    def test_principal_point_ray(self, k):
        assert np.allclose(geo.unproject(k.cx, k.cy, 5.0, k), [0, 0, 5.0])

    def test_unit_tangent_offset(self, k):
        p = geo.unproject(k.cx + k.fx, k.cy, 2.0, k)
        assert np.allclose(p, [2.0, 0.0, 2.0])

    def test_nonpositive_depth_rejected(self, k):
        with pytest.raises(ValueError):
            geo.unproject(10.0, 10.0, 0.0, k)
        with pytest.raises(ValueError):
            geo.unproject(10.0, 10.0, -1.0, k)

    def test_project_roundtrip(self, k):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0, k.width)
            v = rng.uniform(0, k.height)
            d = rng.uniform(0.1, 80.0)
            uu, vv, dd = geo.project(geo.unproject(u, v, d, k), k)
            assert abs(uu - u) < 1e-9 * max(1, abs(u))
            assert abs(vv - v) < 1e-9 * max(1, abs(v))
            assert abs(dd - d) < 1e-9 * d


class TestRigidTransform:
    def test_identity_compose(self):
        rng = np.random.default_rng(1)
        t = random_transform(rng)
        out = geo.compose(t, geo.RigidTransform.identity())
        assert np.allclose(out.rotation, t.rotation)
        assert np.allclose(out.translation, t.translation)

    def test_compose_with_inverse(self):
        rng = np.random.default_rng(2)
        t = random_transform(rng)
        out = geo.compose(t, geo.invert(t))
        assert np.allclose(out.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(out.translation, 0, atol=1e-9)

    def test_compose_pointwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_transform(rng), random_transform(rng)
            x = rng.standard_normal(3)
            assert np.allclose(geo.compose(a, b).apply(x), a.apply(b.apply(x)),
                               atol=1e-9)

    def test_compose_associative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b, c = (random_transform(rng) for _ in range(3))
            x = rng.standard_normal(3)
            lhs = geo.compose(geo.compose(a, b), c).apply(x)
            rhs = geo.compose(a, geo.compose(b, c)).apply(x)
            assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (37, 3), (4, 5, 3),
                                       (2, 3, 4, 3)])
    def test_apply_matches_matmul_bytes(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(100):
            t = random_transform(rng)
            p = 20 * rng.standard_normal(shape)
            got = t.apply(p)
            assert got.tobytes() == (p @ t.rotation.T + t.translation).tobytes()
            assert got.shape == shape and got.flags.c_contiguous

    def test_apply_in_blocks_matches_matmul_bytes(self):
        # one product over more rows than a block, and one large enough
        # that OpenBLAS splits it over threads
        rng = np.random.default_rng(6)
        rows = geo._APPLY_BLOCK_ROWS
        for shape in [(0, 3), (rows, 3), (3 * rows + 7, 3),
                      (59, 32, 48, 3)]:
            for _ in range(3):
                t = random_transform(rng)
                p = 50 * rng.standard_normal(shape)
                got = t.apply(p)
                want = p @ t.rotation.T + t.translation
                assert got.tobytes() == want.tobytes()
                assert got.shape == shape and got.flags.c_contiguous

    def test_apply_casts_and_copies_strided_input(self):
        rng = np.random.default_rng(7)
        t = random_transform(rng)
        p = rng.standard_normal((3, 40, 6)).astype(np.float32)[:, ::2, :3].T
        want = p.astype(np.float64) @ t.rotation.T + t.translation
        got = t.apply(p)
        assert got.tobytes() == want.tobytes() and got.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(6,), (2, 6), (3, 1), ()])
    def test_apply_rejects_non_point_shapes(self, shape):
        with pytest.raises(ValueError):
            geo.RigidTransform.identity().apply(np.zeros(shape))

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            geo.RigidTransform(np.eye(3) * 2, np.zeros(3))
        with pytest.raises(ValueError):
            geo.RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestRelativeEgoMotion:
    def test_identical_poses(self):
        rng = np.random.default_rng(5)
        p = random_transform(rng)
        rel = geo.relative_ego_motion(p, p)
        assert np.allclose(rel.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(rel.translation, 0, atol=1e-9)

    def test_pure_translation_pointwise(self):
        # vehicle advances 1m in +x between frames: a world point tagged at
        # the previous ego origin must land 1m behind the current origin
        prev = geo.RigidTransform.from_translation([0.0, 0.0, 0.0])
        cur = geo.RigidTransform.from_translation([1.0, 0.0, 0.0])
        rel = geo.relative_ego_motion(prev, cur)
        world = prev.apply([0.0, 0.0, 0.0])
        expect = geo.invert(cur).apply(world)
        assert np.allclose(rel.apply([0.0, 0.0, 0.0]), expect)
        assert np.allclose(expect, [-1.0, 0.0, 0.0])

    def test_yaw_rotation_part(self):
        prev = geo.RigidTransform.identity()
        cur = geo.RigidTransform.from_yaw(np.pi / 2)
        rel = geo.relative_ego_motion(prev, cur)
        expected = geo.compose(geo.invert(cur), prev)
        assert np.allclose(rel.rotation,
                           geo.RigidTransform.from_yaw(-np.pi / 2).rotation,
                           atol=1e-9)
        assert np.allclose(rel.rotation, expected.rotation, atol=1e-9)


def test_frustum_in_range_half_open():
    f = geo.FrustumSpec(depth_min=1.0, depth_max=13.0)
    d = np.array([np.nan, np.inf, -np.inf, 0.99, 1.0, 12.99, 13.0])
    assert f.in_range(d).tolist() == [False, False, False, False, True,
                                      True, False]
    assert (f.bin_of(d[f.in_range(d)]) < f.num_bins).all()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["depth_min", "depth_max", "depth_step"])
def test_frustum_rejects_non_finite(name, value):
    bins = {"depth_min": 1.0, "depth_max": 13.0, "depth_step": 1.0}
    bins[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        geo.FrustumSpec(**bins)


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_frustum_rejects_non_positive_depth_step(step):
    with pytest.raises(ValueError, match="depth_step must be positive"):
        geo.FrustumSpec(depth_min=1.0, depth_max=13.0, depth_step=step)


INTRINSICS = dict(fx=400.0, fy=410.0, cx=320.0, cy=240.0, width=640,
                  height=480)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy"])
def test_intrinsics_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        geo.Intrinsics(**{**INTRINSICS, name: value})


@pytest.mark.parametrize("value", [640.0, True, "640"])
@pytest.mark.parametrize("name", ["width", "height"])
def test_intrinsics_reject_non_int_image_size(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int, got {value!r}"):
        geo.Intrinsics(**{**INTRINSICS, name: value})


def test_intrinsics_accept_numpy_int_image_size():
    k = geo.Intrinsics(**{**INTRINSICS, "width": np.int64(640)})
    assert k.scaled(4).width == 160


@pytest.mark.parametrize("stride", [0, -4])
def test_intrinsics_scaled_rejects_stride_below_one(k, stride):
    with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}"):
        k.scaled(stride)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("axis", [0, 2])
def test_rigid_transform_rejects_non_finite_translation(axis, value):
    t = np.zeros(3)
    t[axis] = value
    with pytest.raises(ValueError, match="translation must be finite"):
        geo.RigidTransform(np.eye(3), t)
    d = geo.RigidTransform.identity().to_dict()
    d["translation"][axis] = value
    with pytest.raises(ValueError, match="translation must be finite"):
        geo.RigidTransform.from_dict(d)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["origin", "voxel_size"])
def test_grid_rejects_non_finite(name, value):
    vec = np.array([0.4, 0.4, 0.4])
    vec[1] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        geo.VoxelGridSpec(4, 4, 2, **{name: vec})


@pytest.mark.parametrize("value", [40.0, True, np.float64(40)],
                         ids=["float", "bool", "numpy_float"])
@pytest.mark.parametrize("name", ["nx", "ny", "nz"])
def test_grid_rejects_non_int_dims(name, value):
    dims = {"nx": 40, "ny": 40, "nz": 8, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        geo.VoxelGridSpec(**dims)


def test_frustum_spec_holds_only_depth_bins():
    # the pixel lattice is the stride-scaled Intrinsics', never a copy
    assert [f.name for f in dataclasses.fields(geo.FrustumSpec)] == \
        ["depth_min", "depth_max", "depth_step"]


class TestFrustumPoints:
    def test_single_point(self):
        k = geo.Intrinsics(fx=10, fy=10, cx=0.5, cy=0.5, width=1, height=1)
        f = geo.FrustumSpec(depth_min=1.0, depth_max=2.0,
                            depth_step=1.0)
        pts = geo.frustum_points(k, f, geo.RigidTransform.identity())
        assert pts.shape == (1, 3)

    def test_principal_point_depth(self):
        k = geo.Intrinsics(fx=10, fy=10, cx=0.5, cy=0.5, width=1, height=1)
        f = geo.FrustumSpec(depth_min=9.5, depth_max=10.5,
                            depth_step=1.0)
        pts = geo.frustum_points(k, f, geo.RigidTransform.identity())
        assert np.allclose(pts[0], [0.0, 0.0, 10.0])

    def test_count(self):
        k = geo.Intrinsics(fx=50, fy=50, cx=22, cy=8, width=44, height=16)
        f = geo.FrustumSpec(depth_min=1.0, depth_max=60.0,
                            depth_step=1.0)
        assert f.num_bins == 59
        assert geo.frustum_points(k, f, geo.RigidTransform.identity()).shape \
            == (41536, 3)

    def test_ordering_d_slowest_u_fastest(self):
        k = geo.Intrinsics(fx=10, fy=10, cx=1.0, cy=1.0, width=2, height=2)
        f = geo.FrustumSpec(depth_min=0.5, depth_max=2.5,
                            depth_step=1.0)
        pts = geo.frustum_points(k, f, geo.RigidTransform.identity())
        # depths: first 4 points at bin 0 center, next 4 at bin 1 center
        assert np.allclose(pts[:4, 2], 1.0)
        assert np.allclose(pts[4:, 2], 2.0)
        # u fastest: x increases within the first pair
        assert pts[1, 0] > pts[0, 0]

    # the desk, paper and stereo cameras (width, height, focal, depth_max)
    # at the cost-volume stride and the three lifted strides
    @pytest.mark.parametrize("stride", [4, 8, 16, 32])
    @pytest.mark.parametrize("camera", [(128, 96, 40.0, 13.0),
                                        (256, 128, 128.0, 40.0),
                                        (704, 256, 352.0, 60.0)],
                             ids=["desk", "paper", "stereo"])
    def test_bytes_match_meshgrid_lattice(self, camera, stride):
        width, height, focal, depth_max = camera
        k = geo.Intrinsics(fx=focal, fy=focal, cx=width / 2, cy=height / 2,
                           width=width, height=height).scaled(stride)
        f = geo.FrustumSpec(depth_min=1.0, depth_max=depth_max)
        cam_to_ego = random_transform(np.random.default_rng(stride))
        got = geo.frustum_points(k, f, cam_to_ego)
        want = meshgrid_frustum_points(k, f, cam_to_ego)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_pixel_centers_broadcast_to_the_lattice(self):
        k = geo.Intrinsics(fx=10, fy=10, cx=1.0, cy=1.0, width=3, height=2)
        u, v = geo.pixel_centers(k)
        assert u.shape == (3,) and v.shape == (2, 1)
        uu, vv = np.broadcast_arrays(u, v)
        assert uu.tolist() == [[0.5, 1.5, 2.5]] * 2
        assert vv.tolist() == [[0.5] * 3, [1.5] * 3]


class TestVoxelIndex:
    def grid(self):
        return geo.VoxelGridSpec(5, 5, 3, origin=np.array([-1.0, -2.0, 0.0]),
                                 voxel_size=np.array([0.5, 0.5, 1.0]))

    def test_origin_is_cell_zero(self):
        assert geo.voxel_indices(np.array([-1.0, -2.0, 0.0]), self.grid()) == 0

    def test_upper_boundary_outside(self):
        g = self.grid()
        p = g.origin + np.array([g.nx, g.ny, g.nz]) * g.voxel_size
        assert geo.voxel_indices(p, g) == -1

    def test_scalar_floor_oracle(self):
        g = self.grid()
        rng = np.random.default_rng(6)
        points = (g.origin + rng.uniform(0, 1, (100, 3))
                  * [g.nx, g.ny, g.nz] * g.voxel_size)
        for p, idx in zip(points, geo.voxel_indices(points, g)):
            cx = int(np.floor((p[0] - g.origin[0]) / g.voxel_size[0]))
            cy = int(np.floor((p[1] - g.origin[1]) / g.voxel_size[1]))
            cz = int(np.floor((p[2] - g.origin[2]) / g.voxel_size[2]))
            assert idx == (cx * g.ny + cy) * g.nz + cz

    def test_cell_center_inverse(self):
        g = self.grid()
        centers = g.cell_centers().reshape(-1, 3)
        idx = geo.voxel_indices(centers, g)
        assert np.array_equal(idx, np.arange(g.num_voxels))

    @pytest.mark.parametrize("dims, voxel_size", [
        ((200, 200, 16), (0.4, 0.4, 0.4)),
        ((40, 40, 8), (0.4, 0.4, 0.4)),
        ((23, 37, 11), (0.13, 0.41, 0.29)),
    ], ids=["paper", "desk", "uneven"])
    def test_cell_centers_bytes_match_meshgrid(self, dims, voxel_size):
        g = geo.VoxelGridSpec(*dims, origin=np.array([-8.3, -7.1, -1.7]),
                              voxel_size=np.array(voxel_size))
        got = g.cell_centers()
        want = meshgrid_cell_centers(g)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_cell_centers_hold_only_the_output(self):
        # the (nx, ny, nz, 3) float64 output plus three axis arrays of at
        # most 200 floats and their temporaries: under 1.05 outputs, where
        # the meshgrid held four
        g = geo.VoxelGridSpec(200, 200, 16)
        bound = 1.05 * g.num_voxels * 3 * 8
        tracemalloc.start()
        try:
            g.cell_centers()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestSerialization:
    def test_rig_roundtrip(self, k):
        rig = geo.CameraRig(((k, geo.RigidTransform.from_yaw(0.3, (1, 2, 3))),))
        rig2 = geo.CameraRig.from_json(rig.to_json())
        k2, t2 = rig2.cameras[0]
        assert k2 == k
        assert np.allclose(t2.rotation, rig.cameras[0][1].rotation)
        parsed = json.loads(rig.to_json())
        assert len(parsed["cameras"][0]["cam_to_ego"]["rotation"]) == 9

    def test_rig_rejects_mixed_image_sizes(self, k):
        small = geo.Intrinsics(fx=400.0, fy=410.0, cx=160.0, cy=120.0,
                               width=320, height=240)
        t = geo.RigidTransform.identity()
        with pytest.raises(ValueError, match="differ in image size"):
            geo.CameraRig(((k, t), (small, t)))

    def test_grid_roundtrip(self):
        g = geo.VoxelGridSpec(200, 200, 16)
        g2 = geo.VoxelGridSpec.from_json(g.to_json())
        assert g2.shape == (200, 200, 16)
        assert np.allclose(g2.origin, [-40, -40, -1])
        assert np.allclose(g2.voxel_size, 0.4)


def quaternion_rotation(q):
    """The rotation of quaternion (w, x, y, z), normalized."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


transforms = st.builds(
    lambda q, t: geo.RigidTransform(quaternion_rotation(q), np.array(t)),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    st.tuples(*[st.floats(-100.0, 100.0)] * 3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(t=transforms)
def test_compose_with_inverse_is_identity_property(t):
    # a few float64 roundings per entry: 1e-12 on the rotation, and on the
    # translation relative to its size
    atol = 1e-12 * (1.0 + np.abs(t.translation).max())
    for out in (geo.compose(t, geo.invert(t)), geo.compose(geo.invert(t), t)):
        assert np.allclose(out.rotation, np.eye(3), rtol=0, atol=1e-12)
        assert np.allclose(out.translation, 0.0, rtol=0, atol=atol)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=st.tuples(st.floats(1.0, 5000.0), st.floats(1.0, 5000.0)),
       c=st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0)),
       u=st.floats(-5000.0, 5000.0), v=st.floats(-5000.0, 5000.0),
       d=st.floats(1e-3, 1e3))
def test_project_of_unproject_is_identity_property(f, c, u, v, d):
    k = geo.Intrinsics(fx=f[0], fy=f[1], cx=c[0], cy=c[1], width=640,
                       height=480)
    uu, vv, dd = geo.project(geo.unproject(u, v, d, k), k)
    # the depth passes through untouched; a pixel coordinate takes a few
    # roundings, each relative to the larger of it and the principal point
    assert dd == d
    assert abs(uu - u) <= 1e-12 * (abs(u) + abs(k.cx) + 1.0)
    assert abs(vv - v) <= 1e-12 * (abs(v) + abs(k.cy) + 1.0)
