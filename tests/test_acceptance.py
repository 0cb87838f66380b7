"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest -s tests/test_acceptance.py` to see the
lines as they go by."""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from msocc import fixtures, losses, metrics, pipeline, temporal
from msocc import geometry as geo
from msocc import postprocess as pp
from msocc.gt_multiscale import (FREE, build_pyramid, downsample_mask,
                                 downsample_occ, downsample_sem)
from msocc.lift_splat import (build_pooling_index, lift_and_pool,
                              normalize_depth_logits)

from test_lift_splat import naive_scatter, small_setup
from test_temporal import trilinear_oracle


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_pool_instance(seed):
    rng = np.random.default_rng(seed)
    n_cams = int(rng.integers(1, 3))
    h = int(rng.integers(2, 9))
    w = int(rng.integers(2, 17))
    d = int(rng.integers(1, 9))
    ch = int(rng.integers(1, 5))
    gn = tuple(int(x) for x in rng.integers(2, 13, 3))
    return small_setup(seed + 1000, n_cams=n_cams, ch=ch, h=h, w=w, d=d,
                       grid_n=gn)


def test_criterion_1_and_2_pooling_oracle_and_mass():
    start = time.perf_counter()
    worst = 0.0
    worst_mass = 0.0
    for seed in range(20):
        rig, f, g, features, depths = random_pool_instance(seed)
        idx = build_pooling_index(rig, f, g)
        out = lift_and_pool(features, depths, idx)
        want, entries = naive_scatter(rig, f, g, features, depths)
        scale = max(np.abs(want).max(), 1e-12)
        worst = max(worst, np.abs(out - want).max() / scale)
        contrib = 0.0
        h, w = features.shape[2:]
        for cam, off, _ in entries:
            di, rem = divmod(off, h * w)
            v, u = divmod(rem, w)
            contrib += depths[cam, di, v, u] * features[cam, :, v, u].sum()
        denom = max(abs(contrib), 1e-12)
        worst_mass = max(worst_mass, abs(out.sum() - contrib) / denom)
    elapsed = time.perf_counter() - start
    report("1. pooling oracle equivalence (20 instances)",
           worst < 1e-6 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")
    report("2. mass conservation", worst_mass < 1e-6,
           f"max rel err {worst_mass:.2e}")


def test_criterion_3_pooling_throughput():
    g = geo.VoxelGridSpec(200, 200, 16)
    rig = fixtures._default_rig(6, 128, 48, focal=60.0, cam_height=0.8)
    f = geo.FrustumSpec(depth_min=1.0, depth_max=60.0,
                        depth_step=0.5)
    idx = build_pooling_index(rig, f, g)
    assert idx.num_entries >= 1_000_000, idx.num_entries
    rng = np.random.default_rng(0)
    features = rng.standard_normal((6, 16, 48, 128))
    depths = np.stack([normalize_depth_logits(
        rng.standard_normal((f.num_bins, 48, 128))) for _ in range(6)])
    start = time.perf_counter()
    lift_and_pool(features, depths, idx)
    elapsed = time.perf_counter() - start
    report("3. pooling throughput (>=1M contributions, 200x200x16)",
           elapsed <= 5.0, f"{idx.num_entries} entries in {elapsed:.2f}s")


def test_criterion_4_cost_volume_depth_recovery():
    k = geo.Intrinsics(fx=50, fy=50, cx=24, cy=16, width=48, height=32)
    f = geo.FrustumSpec(depth_min=6.5, depth_max=14.5,
                        depth_step=1.0)
    cur, prev, rel = fixtures.textured_plane_features(10.0, k)
    cv = temporal.build_cost_volume(cur, prev, rel, k, f)
    am = np.argmax(cv, axis=0)
    max_shift = k.fx * 2.0 / f.bin_centers().min()
    interior = np.zeros((32, 48), bool)
    interior[:, int(np.ceil(max_shift)) + 1:] = True
    true_bin = int(np.argmin(np.abs(f.bin_centers() - 10.0)))
    frac = (am[interior] == true_bin).mean()
    report("4. cost-volume depth recovery", frac >= 0.95,
           f"argmax hit rate {frac:.3f}")


def test_criterion_5_warp_correctness():
    g = geo.VoxelGridSpec(8, 8, 4, origin=np.array([-2.0, -2.0, -1.0]),
                          voxel_size=np.array([0.5, 0.5, 0.5]))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, *g.shape))
    ident = temporal.warp_voxel_grid(a, geo.RigidTransform.identity(), g,
                                     mode="nearest")
    ok = np.array_equal(ident, a)
    shift = temporal.warp_voxel_grid(
        a, geo.RigidTransform.from_translation([g.voxel_size[0], 0, 0]), g,
        mode="nearest")
    ok &= np.array_equal(shift[:, 1:], a[:, :-1]) and np.all(shift[:, 0] == 0)
    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        arr = r.standard_normal((2, *g.shape))
        rel = geo.RigidTransform.from_yaw(r.uniform(-0.2, 0.2),
                                          r.uniform(-0.3, 0.3, 3))
        out = temporal.warp_voxel_grid(arr, rel, g)
        worst = max(worst, np.abs(out - trilinear_oracle(arr, g, rel)).max())
    ok &= worst < 1e-6
    report("5. warp correctness", bool(ok), f"trilinear max err {worst:.2e}")


def test_criterion_6_gt_pyramid():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        occ = (rng.random((8, 8, 4)) < 0.5).astype(np.uint8)
        sem = np.where(occ == 1, rng.integers(0, 17, (8, 8, 4)),
                       FREE).astype(np.uint8)
        mask = rng.random((8, 8, 4)) < 0.7
        occ_c = downsample_occ(occ)
        sem_c = downsample_sem(sem, occ_c)
        mask_c = downsample_mask(mask)
        for i in range(4):
            for j in range(4):
                for l in range(2):
                    blk_occ = occ[2*i:2*i+2, 2*j:2*j+2, 2*l:2*l+2].ravel()
                    blk_sem = sem[2*i:2*i+2, 2*j:2*j+2, 2*l:2*l+2].ravel()
                    blk_mask = mask[2*i:2*i+2, 2*j:2*j+2, 2*l:2*l+2].ravel()
                    ok &= occ_c[i, j, l] == blk_occ.max()
                    ok &= mask_c[i, j, l] == blk_mask.any()
                    if occ_c[i, j, l] == 0:
                        ok &= sem_c[i, j, l] == FREE
                    else:
                        labels = [x for x in blk_sem if x != FREE]
                        counts = {x: labels.count(x) for x in set(labels)}
                        best = max(counts.values())
                        ok &= sem_c[i, j, l] == min(
                            x for x, c in counts.items() if c == best)
        pyr = build_pyramid(occ, sem, mask)
        direct = np.zeros((2, 2, 1), np.uint8)
        for i in range(2):
            for j in range(2):
                direct[i, j, 0] = occ[4*i:4*i+4, 4*j:4*j+4, :].max()
        ok &= np.array_equal(pyr.occ[2], direct)
    report("6. GT pyramid block oracles + composition", bool(ok))


def test_criterion_7_loss_constants():
    occ = np.array([[[0, 1], [1, 0]]], np.uint8)
    m = np.ones_like(occ, bool)
    w = losses.ClassWeights.uniform(2)
    l_bce, _ = losses.bce_occ_loss(np.zeros(occ.shape), occ, m, w)
    ok = abs(l_bce - math.log(2)) < 1e-9

    f = geo.FrustumSpec(depth_min=1.0, depth_max=60.0,
                        depth_step=1.0)
    assert f.num_bins == 59
    l_d, _ = losses.depth_loss(np.zeros((59, 3, 4)), np.full((3, 4), 7.0),
                               np.ones((3, 4), bool), f)
    ok &= abs(l_d - math.log(59)) < 1e-6

    rng = np.random.default_rng(1)
    g_occ = np.ones((3, 3, 2), np.uint8)
    g_sem = rng.integers(0, 4, (3, 3, 2)).astype(np.uint8)
    z = rng.standard_normal((4, 3, 3, 2))
    w4 = losses.class_frequency_weights(g_sem, g_occ,
                                        np.ones((3, 3, 2), bool), 4)
    l_focal0, _ = losses.focal_sem_loss(z, g_sem, g_occ,
                                        np.ones((3, 3, 2), bool), w4, 0.0)
    zc = z.reshape(4, -1)
    lab = g_sem.reshape(-1).astype(int)
    zs = zc - zc.max(axis=0)
    logp = zs - np.log(np.exp(zs).sum(axis=0))
    ce = float((w4.w_sem[lab] * -logp[lab, np.arange(len(lab))]).mean())
    ok &= abs(l_focal0 - ce) < 1e-12

    r = losses.total_loss([1, 1, 1], [0, 0, 0], [0, 0, 0])
    ok &= (r["total"] == 1.75
           and [row["alpha"] for row in r["scales"]] == [1.0, 0.5, 0.25])
    report("7. loss constants (ln2, ln59, focal gamma 0, alpha weights)",
           bool(ok))


def test_criterion_8_gradient_checks():
    from test_losses import finite_diff, random_instance, rel_err
    worst = 0.0
    for seed in range(10):
        rng, occ, sem, mask, w = random_instance(seed + 200)
        z = rng.standard_normal(occ.shape) * 2
        _, grad = losses.bce_occ_loss(z, occ, mask, w)
        fd = finite_diff(lambda zz: losses.bce_occ_loss(zz, occ, mask, w)[0], z)
        worst = max(worst, rel_err(grad, fd))

        zs = rng.standard_normal((5, *occ.shape)) * 2
        _, grad = losses.focal_sem_loss(zs, sem, occ, mask, w, 2.0)
        fd = finite_diff(lambda zz: losses.focal_sem_loss(
            zz, sem, occ, mask, w, 2.0)[0], zs)
        worst = max(worst, rel_err(grad, fd))

        f = geo.FrustumSpec(depth_min=1.0, depth_max=7.0)
        gtd = rng.uniform(1.0, 6.9, (2, 3))
        valid = np.ones((2, 3), bool)
        zd = rng.standard_normal((f.num_bins, 2, 3)) * 2
        _, grad = losses.depth_loss(zd, gtd, valid, f)
        fd = finite_diff(lambda zz: losses.depth_loss(zz, gtd, valid, f)[0], zd)
        worst = max(worst, rel_err(grad, fd))
    report("8. analytic gradients vs finite differences", worst < 1e-4,
           f"max rel err {worst:.2e}")


def test_criterion_9_postprocess_constants():
    t = pp.DEFAULT_THRESHOLDS
    table1 = {
        "Others": 0.92, "Barrier": 0.94, "Bicycle": 0.94, "Bus": 0.94,
        "Car": 0.93, "Construction Vehicle": 0.93, "Motorcycle": 0.91,
        "Pedestrian": 0.91, "Traffic Cone": 0.91, "Trailer": 0.93,
        "Truck": 0.93, "Driveable Surface": 0.96, "Other Flat": 0.95,
        "Sidewalk": 0.95, "Terrain": 0.95, "Manmade": 0.93,
        "Vegetation": 0.92,
    }
    ok = t == table1 and len(t) == 17
    ok &= pipeline.PipelineConfig().ensemble_weights == (0.45, 0.55)
    car = pp.CLASS_NAMES.index("Car")
    ds = pp.CLASS_NAMES.index("Driveable Surface")
    occ = np.array([[[0.95]], [[0.955]]])
    sem = np.array([[[car]], [[ds]]], np.uint8)
    out = pp.apply_thresholds(occ, sem, t)
    ok &= out[0, 0, 0] == car and out[1, 0, 0] == FREE
    report("9. post-process constants (threshold table, ensemble weights)",
           bool(ok))


def test_criterion_10_tta_group():
    tags = pp.enumerate_tta()
    ok = len(tags) == 8 and len(set(tags)) == 8
    rng = np.random.default_rng(0)
    occ = rng.random((5, 5, 2))
    sem = rng.random((3, 5, 5, 2))
    for tag in tags:
        o1, s1 = pp.deaugment(tag, occ, sem)
        o2, s2 = pp.deaugment(tag, o1, s1)
        ok &= np.array_equal(o2, occ) and np.array_equal(s2, sem)
    entries_a = [pp.deaugment(tag, *pp.deaugment(tag, occ, sem))
                 for tag in tags]  # identical content round-tripped
    entries_b = [(occ, sem)] * 8
    out_occ, out_sem = pp.ensemble(entries_a, entries_b,
                                   pipeline.PipelineConfig().ensemble_weights)
    ok &= np.abs(out_occ - occ).max() < 1e-12
    ok &= np.array_equal(out_sem, np.argmax(sem, axis=0))
    report("10. TTA group (8 tags, involutions, identical-content fusion)",
           bool(ok))


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    sc = fixtures.make_scene(seed=11, num_cameras=2, num_frames=4,
                             num_boxes=5, image_width=128, image_height=96)
    inp = root / "inp"
    pipeline.emit_inputs(str(inp), sc, seed=11)
    out = root / "out"
    pipeline.run_pipeline(str(inp), str(out))
    return sc, inp, out


def test_criterion_11_oracle_end_to_end(oracle_run):
    sc, inp, out = oracle_run
    rep = json.loads((out / "eval_report.json").read_text())
    ok = rep["miou"] == 1.0

    gt = np.where(sc.gt_occ == 1, sc.gt_sem, FREE).astype(np.uint8)
    rng = np.random.default_rng(0)
    order = rng.permutation(gt.size)
    prev = 1.0
    monotone = True
    strict_drop = True
    for frac in (0.1, 0.25, 0.5, 0.75, 0.95):
        pred = gt.copy().ravel()
        idx = order[:int(frac * gt.size)]
        pred[idx] = FREE
        _, mean = metrics.miou(
            metrics.accumulate(pred.reshape(gt.shape), gt, sc.mask))
        monotone &= mean <= prev + 1e-12
        strict_drop &= mean < prev
        prev = mean
    report("11. oracle end-to-end mIoU + corruption monotonicity",
           ok and monotone and strict_drop,
           f"mIoU {rep['miou']}, final corrupted {prev:.3f}")


def test_criterion_12_run_determinism(oracle_run, tmp_path):
    _, inp, out1 = oracle_run
    out2 = tmp_path / "out2"
    pipeline.run_pipeline(str(inp), str(out2))

    def tree_hash(root):
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(open(path, "rb").read())
        return digest.hexdigest()

    h1, h2 = tree_hash(out1), tree_hash(out2)
    report("12. run determinism (byte-identical output trees)", h1 == h2,
           h1[:16])
