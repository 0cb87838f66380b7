import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msocc import fixtures, losses, pipeline, postprocess, temporal
from msocc.checks import NumericalError
from msocc.cli import main
from msocc.geometry import RigidTransform, VoxelGridSpec, relative_ego_motion
from msocc.gt_multiscale import FREE
from msocc.tensorio import read_tensor, write_tensor


def tree_hash(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene") / "inp"
    rc = main(["synth", "--out", str(out), "--seed", "3", "--cameras", "2",
               "--boxes", "4", "--frames", "4"])
    assert rc == 0
    return out


def test_synth_layout(scene_dir):
    for name in ("rig.json", "grid.json", "poses.json", "gt_occ.msoc",
                 "gt_sem.msoc", "mask.msoc", "gt_depth.msoc",
                 "synth_metadata.json"):
        assert (scene_dir / name).exists()
    assert (scene_dir / "preds" / "tags.json").exists()


def test_synth_tree_independent_of_out_path(scene_dir, tmp_path):
    other = tmp_path / "elsewhere" / "inp"
    rc = main(["synth", "--out", str(other), "--seed", "3", "--cameras", "2",
               "--boxes", "4", "--frames", "4"])
    assert rc == 0
    assert tree_hash(other) == tree_hash(scene_dir)


def test_run_oracle_miou(scene_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--input", str(scene_dir), "--output", str(out)])
    assert rc == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["miou"] == 1.0


def test_run_deterministic(scene_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--input", str(scene_dir), "--output", str(a)]) == 0
    assert main(["run", "--input", str(scene_dir), "--output", str(b)]) == 0
    assert tree_hash(a) == tree_hash(b)


def test_identity_motion_stack_blocks_identical(tmp_path):
    sc = fixtures.make_scene(seed=9, num_cameras=2, num_frames=3,
                             image_width=128, image_height=96)
    sc = fixtures.SyntheticScene(
        sc.grid, sc.gt_occ, sc.gt_sem, sc.mask, sc.rig,
        tuple(sc.poses[:1] * 3), sc.gt_depth)
    inp, out = tmp_path / "inp", tmp_path / "out"
    pipeline.emit_inputs(str(inp), sc, seed=9)
    # identical features/depths for every frame isolate the motion effect
    for t in (1, 2):
        for s in (4, 8, 16, 32):
            src = inp / "features" / f"frame00_stride{s}.msoc"
            dst = inp / "features" / f"frame{t:02d}_stride{s}.msoc"
            dst.write_bytes(src.read_bytes())
            if s != 4:
                src = inp / "depth_logits" / f"frame00_stride{s}.msoc"
                dst = inp / "depth_logits" / f"frame{t:02d}_stride{s}.msoc"
                dst.write_bytes(src.read_bytes())
    pipeline.run_pipeline(str(inp), str(out))
    stack = read_tensor(out / "voxel" / "stack_scale0.msoc")
    c = stack.shape[0] // 2
    assert np.allclose(stack[:c], stack[c:], atol=1e-5)


def test_cost_volume_subcommand(tmp_path, scene_dir):
    path = scene_dir / "features" / "frame01_stride4.msoc"
    feats = read_tensor(path)
    poses = json.loads((scene_dir / "poses.json").read_text())
    (tmp_path / "p0.json").write_text(json.dumps(poses[0]))
    rc = main(["cost-volume", "--current", str(path), "--previous", str(path),
               "--rig", str(scene_dir / "rig.json"),
               "--pose-current", str(tmp_path / "p0.json"),
               "--pose-previous", str(tmp_path / "p0.json"),
               "--out", str(tmp_path / "cv.msoc")])
    assert rc == 0
    cv = read_tensor(tmp_path / "cv.msoc")
    # zero parallax: every hypothesis scores the feature self-correlation
    want = (feats[0].astype(np.float64) ** 2).mean(axis=0)
    assert np.allclose(cv[0], want, atol=1e-5)
    assert (tmp_path / "cv.msoc.meta.json").exists()


def test_gt_downsample_and_eval_subcommands(tmp_path, scene_dir):
    rc = main(["gt-downsample", "--occ", str(scene_dir / "gt_occ.msoc"),
               "--sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--out", str(tmp_path / "pyr")])
    assert rc == 0
    occ2 = read_tensor(tmp_path / "pyr" / "occ_scale2.msoc")
    occ0 = read_tensor(scene_dir / "gt_occ.msoc")
    assert occ2.shape == tuple(s // 4 for s in occ0.shape)

    gt_sem = read_tensor(scene_dir / "gt_sem.msoc")
    labels = np.where(occ0 == 1, gt_sem, FREE).astype(np.uint8)
    write_tensor(tmp_path / "pred.msoc", labels)
    write_tensor(tmp_path / "gt.msoc", labels)
    rc = main(["eval", "--pred", str(tmp_path / "pred.msoc"),
               "--gt", str(tmp_path / "gt.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    assert json.loads((tmp_path / "report.json").read_text())["miou"] == 1.0


def test_threshold_subcommand(tmp_path):
    occ = np.array([[[0.95]], [[0.5]]])
    sem = np.array([[[4]], [[4]]], np.uint8)  # Car, threshold 0.93
    write_tensor(tmp_path / "occ.msoc", occ)
    write_tensor(tmp_path / "sem.msoc", sem)
    rc = main(["threshold", "--occ-prob", str(tmp_path / "occ.msoc"),
               "--sem-labels", str(tmp_path / "sem.msoc"),
               "--out", str(tmp_path / "final.msoc")])
    assert rc == 0
    out = read_tensor(tmp_path / "final.msoc")
    assert out[0, 0, 0] == 4 and out[1, 0, 0] == FREE


@pytest.mark.parametrize("label", [-1, 17, FREE])
def test_threshold_label_that_is_no_class_id_names_its_file(tmp_path, capsys,
                                                            label):
    # int32 labels, so -1 stays -1; at 0.99 every class keeps its voxels
    write_tensor(tmp_path / "occ.msoc", np.full((2, 2, 2), 0.99))
    write_tensor(tmp_path / "sem.msoc", np.full((2, 2, 2), label, np.int32))
    capsys.readouterr()
    rc = main(["threshold", "--occ-prob", str(tmp_path / "occ.msoc"),
               "--sem-labels", str(tmp_path / "sem.msoc"),
               "--out", str(tmp_path / "final.msoc")])
    assert rc == 2
    assert (f"stage 'threshold' failed on {tmp_path / 'sem.msoc'}: "
            f"semantic label {label}") in capsys.readouterr().err
    assert not (tmp_path / "final.msoc").exists()


def test_deaug_subcommand(tmp_path):
    occ = np.zeros((4, 4, 2)); occ[1, 0, 0] = 1.0
    sem = np.zeros((3, 4, 4, 2)); sem[0, 1, 0, 0] = 1.0
    write_tensor(tmp_path / "occ.msoc", occ)
    write_tensor(tmp_path / "sem.msoc", sem)
    rc = main(["deaug", "--occ", str(tmp_path / "occ.msoc"),
               "--sem", str(tmp_path / "sem.msoc"), "--vox-flip-x",
               "--out-occ", str(tmp_path / "o.msoc"),
               "--out-sem", str(tmp_path / "s.msoc")])
    assert rc == 0
    assert read_tensor(tmp_path / "o.msoc")[2, 0, 0] == 1.0


def test_tta_enumerate_subcommand(tmp_path, capsys):
    rc = main(["tta-enumerate"])
    assert rc == 0
    tags = json.loads(capsys.readouterr().out)
    assert len(tags) == 8
    assert tags[0] == {"img_hflip": False, "vox_flip_x": False,
                      "vox_flip_y": False}


def test_exit_code_io(tmp_path):
    bad = tmp_path / "bad.msoc"
    bad.write_bytes(b"XXXX" + b"\x00" * 30)
    rc = main(["threshold", "--occ-prob", str(bad),
               "--sem-labels", str(bad), "--out", str(tmp_path / "o.msoc")])
    assert rc == 4
    rc = main(["eval", "--pred", str(tmp_path / "missing.msoc"),
               "--gt", str(bad), "--mask", str(bad),
               "--out", str(tmp_path / "r.json")])
    assert rc == 4


def test_exit_code_validation(tmp_path):
    occ = np.ones((2, 2, 2))
    sem = np.full((2, 2, 2), 30, np.uint8)  # label outside class set
    write_tensor(tmp_path / "occ.msoc", occ)
    write_tensor(tmp_path / "sem.msoc", sem)
    rc = main(["threshold", "--occ-prob", str(tmp_path / "occ.msoc"),
               "--sem-labels", str(tmp_path / "sem.msoc"),
               "--out", str(tmp_path / "o.msoc")])
    assert rc == 2


def test_exit_code_numerical(tmp_path, scene_dir):
    feats = read_tensor(scene_dir / "features" / "frame01_stride4.msoc")
    nanfeat = feats.copy()
    nanfeat[0, 0, 0, 0] = np.nan
    write_tensor(tmp_path / "cur.msoc", nanfeat)
    write_tensor(tmp_path / "prev.msoc", feats)
    poses = json.loads((scene_dir / "poses.json").read_text())
    (tmp_path / "p0.json").write_text(json.dumps(poses[0]))
    rc = main(["cost-volume", "--current", str(tmp_path / "cur.msoc"),
               "--previous", str(tmp_path / "prev.msoc"),
               "--rig", str(scene_dir / "rig.json"),
               "--pose-current", str(tmp_path / "p0.json"),
               "--pose-previous", str(tmp_path / "p0.json"),
               "--out", str(tmp_path / "cv.msoc")])
    assert rc == 3


@pytest.fixture(scope="module")
def run_dir(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    assert main(["run", "--input", str(scene_dir), "--output", str(out)]) == 0
    return out


def test_current_frame_block_is_lifted_grid(scene_dir, run_dir):
    last = len(json.loads((scene_dir / "poses.json").read_text())) - 1
    for level in range(3):
        lifted = read_tensor(run_dir / "voxel" / f"frame{last:02d}_scale{level}.msoc")
        stack = read_tensor(run_dir / "voxel" / f"stack_scale{level}.msoc")
        assert stack[-lifted.shape[0]:].tobytes() == lifted.tobytes()


def test_lift_subcommand_matches_run(tmp_path, scene_dir, run_dir):
    out = tmp_path / "lifted.msoc"
    rc = main(["lift",
               "--features", str(scene_dir / "features" / "frame01_stride8.msoc"),
               "--depth-logits",
               str(scene_dir / "depth_logits" / "frame01_stride8.msoc"),
               "--rig", str(scene_dir / "rig.json"),
               "--grid", str(scene_dir / "grid.json"),
               "--stride", "8", "--out", str(out)])
    assert rc == 0
    want = (run_dir / "voxel" / "frame01_scale0.msoc").read_bytes()
    assert out.read_bytes() == want
    assert (tmp_path / "lifted.msoc.meta.json").exists()


def test_warp_subcommand_matches_run_stacks(tmp_path, scene_dir, run_dir):
    # a past frame's slice of each stack is `msocc warp` of its written grid
    poses = [RigidTransform.from_dict(d)
             for d in json.loads((scene_dir / "poses.json").read_text())]
    grid = VoxelGridSpec.from_json((scene_dir / "grid.json").read_text())
    for level in range(3):
        f = 2 ** level
        (tmp_path / "grid.json").write_text(VoxelGridSpec(
            grid.nx // f, grid.ny // f, grid.nz // f, origin=grid.origin,
            voxel_size=grid.voxel_size * f).to_json())
        stack = read_tensor(run_dir / "voxel" / f"stack_scale{level}.msoc")
        for t in range(1, len(poses) - 1):
            (tmp_path / "rel.json").write_text(json.dumps(
                relative_ego_motion(poses[t], poses[-1]).to_dict()))
            out = tmp_path / f"frame{t}_scale{level}.msoc"
            assert main(["warp", "--input", str(
                run_dir / "voxel" / f"frame{t:02d}_scale{level}.msoc"),
                "--grid", str(tmp_path / "grid.json"),
                "--transform", str(tmp_path / "rel.json"),
                "--out", str(out)]) == 0
            warped = read_tensor(out)
            c = warped.shape[0]
            assert warped.dtype == stack.dtype == np.float32
            assert warped.tobytes() == stack[(t - 1) * c:t * c].tobytes()


def test_rescaled_cost_volumes_pool_the_written_volume(run_dir):
    written = sorted((run_dir / "cost_volumes").glob("*_stride4.msoc"))
    assert len(written) == 6  # 3 frame pairs, 2 cameras
    for path in written:
        cv = read_tensor(path)
        for s in (8, 16, 32):
            want = read_tensor(str(path).replace("stride4", f"stride{s}"))
            got = temporal.rescale_cost_volume(cv, s)
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes()


def test_cost_volume_subcommand_matches_run(tmp_path, scene_dir, run_dir):
    # the subcommand takes the run's own (N, C, H, W) feature files
    poses = json.loads((scene_dir / "poses.json").read_text())
    for t in (0, 1):
        (tmp_path / f"pose{t}.json").write_text(json.dumps(poses[t]))
    for cam in (0, 1):
        out = tmp_path / f"cv{cam}.msoc"
        rc = main(["cost-volume", "--current",
                   str(scene_dir / "features" / "frame01_stride4.msoc"),
                   "--previous",
                   str(scene_dir / "features" / "frame00_stride4.msoc"),
                   "--rig", str(scene_dir / "rig.json"), "--camera", str(cam),
                   "--pose-current", str(tmp_path / "pose1.json"),
                   "--pose-previous", str(tmp_path / "pose0.json"),
                   "--stride", "4", "--out", str(out)])
        assert rc == 0
        want = (run_dir / "cost_volumes" /
                f"frame01_cam{cam}_stride4.msoc").read_bytes()
        assert out.read_bytes() == want


@pytest.mark.parametrize("flags, message", [
    # the stride-4 features are 24x32; the rig at stride 8 is 12x16
    (["--stride", "8"], "features 24x32 vs camera 12x16"),
    (["--camera", "2"], "camera 2 of features (2, 8, 24, 32)"),
], ids=["stride", "camera"])
def test_cost_volume_features_must_fit_rig(tmp_path, scene_dir, capsys,
                                           flags, message):
    path = str(scene_dir / "features" / "frame01_stride4.msoc")
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(
        json.loads((scene_dir / "poses.json").read_text())[0]))
    capsys.readouterr()
    assert main(["cost-volume", "--current", path, "--previous", path,
                 "--rig", str(scene_dir / "rig.json"), *flags,
                 "--pose-current", str(pose), "--pose-previous", str(pose),
                 "--out", str(tmp_path / "cv.msoc")]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["pose.json"]


def test_lift_stride_must_match_features(tmp_path, scene_dir, capsys):
    capsys.readouterr()
    assert main(["lift",
                 "--features", str(scene_dir / "features" / "frame01_stride8.msoc"),
                 "--depth-logits",
                 str(scene_dir / "depth_logits" / "frame01_stride8.msoc"),
                 "--rig", str(scene_dir / "rig.json"),
                 "--grid", str(scene_dir / "grid.json"),
                 "--stride", "16", "--out", str(tmp_path / "lifted.msoc")]) == 2
    assert "inconsistent with index" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_run_features_off_the_rig_lattice_name_their_file(tmp_path, scene_dir,
                                                          capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "features" / "frame01_stride8.msoc"
    shutil.copy(inp / "features" / "frame01_stride4.msoc", path)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"stage 'lift_stack' failed on {path}: features" in err
    assert "on a 12x16 rig" in err


def test_rig_of_mixed_image_sizes_fails_in_inputs(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    rig = json.loads((inp / "rig.json").read_text())
    rig["cameras"][1]["intrinsics"]["width"] //= 2
    (inp / "rig.json").write_text(json.dumps(rig))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {inp / 'rig.json'}" in err
    assert "differ in image size" in err
    assert not out.exists()


def test_cost_volume_stage_reads_each_frame_once(tmp_path, scene_dir,
                                                 monkeypatch, capsys):
    reads = []

    def counting_read(path):
        reads.append(os.path.basename(path))
        return read_tensor(path)

    monkeypatch.setattr(pipeline, "read_tensor", counting_read)
    pipeline.run_pipeline(str(scene_dir), str(tmp_path / "out"))
    frames = len(json.loads((scene_dir / "poses.json").read_text()))
    assert sorted(r for r in reads if r.endswith("_stride4.msoc")) == \
        [f"frame{t:02d}_stride4.msoc" for t in range(frames)]
    monkeypatch.undo()

    # a missing frame is named by its own path, not by the next frame's
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    missing = inp / "features" / "frame00_stride4.msoc"
    missing.unlink()
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out2")]) == 4
    err = capsys.readouterr().err
    assert f"stage 'cost_volume' failed on {missing}" in err
    assert "frame01_stride4" not in err


def test_ensemble_subcommand_matches_run(tmp_path, scene_dir, run_dir):
    rc = main(["ensemble", "--preds", str(scene_dir / "preds"),
               "--out-occ", str(tmp_path / "occ.msoc"),
               "--out-sem", str(tmp_path / "sem.msoc")])
    assert rc == 0
    assert (tmp_path / "occ.msoc").read_bytes() == \
        (run_dir / "occ_prob.msoc").read_bytes()
    assert (tmp_path / "occ.msoc.meta.json").exists()


def test_loss_subcommand_matches_run_scale0(tmp_path, scene_dir, run_dir):
    pyr = run_dir / "gt_pyramid"
    rc = main(["loss",
               "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
               "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
               "--gt-occ", str(pyr / "occ_scale0.msoc"),
               "--gt-sem", str(pyr / "sem_scale0.msoc"),
               "--mask", str(pyr / "mask_scale0.msoc"),
               "--out", str(tmp_path / "loss.json")])
    assert rc == 0
    got = json.loads((tmp_path / "loss.json").read_text())
    want = json.loads((run_dir / "loss_report.json").read_text())["scales"][0]
    assert (got["occ"], got["sem"]) == (want["occ"], want["sem"])


def test_loss_subcommand_no_valid_depth_is_validation_error(tmp_path, scene_dir):
    write_tensor(tmp_path / "dlogits.msoc", np.zeros((12, 2, 3), np.float32))
    write_tensor(tmp_path / "gt_depth.msoc", np.full((2, 3), np.inf))
    rc = main(["loss",
               "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
               "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
               "--gt-occ", str(scene_dir / "gt_occ.msoc"),
               "--gt-sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--depth-logits", str(tmp_path / "dlogits.msoc"),
               "--gt-depth", str(tmp_path / "gt_depth.msoc"),
               "--out", str(tmp_path / "loss.json")])
    assert rc == 2


def test_loss_subcommand_depth_shape_mismatch_is_validation_error(
        tmp_path, scene_dir, capsys):
    write_tensor(tmp_path / "dlogits.msoc", np.zeros((12, 12, 16), np.float32))
    write_tensor(tmp_path / "gt_depth.msoc", np.full((96, 128), 5.0))
    capsys.readouterr()
    rc = main(["loss",
               "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
               "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
               "--gt-occ", str(scene_dir / "gt_occ.msoc"),
               "--gt-sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--depth-logits", str(tmp_path / "dlogits.msoc"),
               "--gt-depth", str(tmp_path / "gt_depth.msoc"),
               "--out", str(tmp_path / "loss.json")])
    assert rc == 2
    assert "shape mismatch" in capsys.readouterr().err
    assert not (tmp_path / "loss.json").exists()


def test_loss_subcommand_bin_count_must_match_logits(tmp_path, scene_dir,
                                                     capsys):
    # the logits have the 12 bins of 1-13 m; --depth-max 40 asks for 39
    gt_depth = read_tensor(scene_dir / "gt_depth.msoc")
    write_tensor(tmp_path / "gt_depth.msoc", gt_depth[:, 4::8, 4::8])
    capsys.readouterr()
    rc = main(["loss",
               "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
               "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
               "--gt-occ", str(scene_dir / "gt_occ.msoc"),
               "--gt-sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--depth-logits",
               str(scene_dir / "depth_logits" / "frame03_stride8.msoc"),
               "--gt-depth", str(tmp_path / "gt_depth.msoc"),
               "--depth-max", "40", "--out", str(tmp_path / "loss.json")])
    assert rc == 2
    assert "12 depth logits for 39 depth bins" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["gt_depth.msoc"]


def test_nonfinite_head_logits_fail_in_loss(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "heads" / "occ_logits_scale0.msoc"
    logits = read_tensor(path)
    logits[1, 2, 3] = np.nan
    write_tensor(path, logits)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 3
    assert "stage 'loss'" in capsys.readouterr().err
    assert not (out / "loss_report.json").exists()
    # the subcommand fails on the same file through the same check
    assert main(["loss", "--occ-logits", str(path),
                 "--sem-logits", str(inp / "heads" / "sem_logits_scale0.msoc"),
                 "--gt-occ", str(inp / "gt_occ.msoc"),
                 "--gt-sem", str(inp / "gt_sem.msoc"),
                 "--mask", str(inp / "mask.msoc"),
                 "--out", str(tmp_path / "loss.json")]) == 3
    assert "losses: 1 NaN" in capsys.readouterr().err
    assert not (tmp_path / "loss.json").exists()


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    load_workloads().make_inputs("desk", 0, str(root / "inp"))
    assert main(["run", "--input", str(root / "inp"),
                 "--output", str(root / "out")]) == 0
    return root / "inp", root / "out"


def test_loss_subcommand_matches_run_on_every_desk_scale(tmp_path, desk_run):
    inp, out = desk_run
    cfg = json.loads((inp / "config.json").read_text())
    last = len(json.loads((inp / "poses.json").read_text())) - 1
    gt_depth = read_tensor(inp / "gt_depth.msoc")
    rows = json.loads((out / "loss_report.json").read_text())["scales"]
    for i, s in enumerate(cfg["strides"]):
        # the run's depth supervision: the current frame's logits against
        # gt_depth sampled at pixel centers
        write_tensor(tmp_path / "gt_depth.msoc",
                     gt_depth[:, s // 2::s, s // 2::s])
        rc = main(["loss",
                   "--occ-logits", str(inp / "heads" / f"occ_logits_scale{i}.msoc"),
                   "--sem-logits", str(inp / "heads" / f"sem_logits_scale{i}.msoc"),
                   "--gt-occ", str(out / "gt_pyramid" / f"occ_scale{i}.msoc"),
                   "--gt-sem", str(out / "gt_pyramid" / f"sem_scale{i}.msoc"),
                   "--mask", str(out / "gt_pyramid" / f"mask_scale{i}.msoc"),
                   "--depth-logits", str(inp / "depth_logits" /
                                         f"frame{last:02d}_stride{s}.msoc"),
                   "--gt-depth", str(tmp_path / "gt_depth.msoc"),
                   "--depth-min", str(cfg["depth_min"]),
                   "--depth-max", str(cfg["depth_max"]),
                   "--depth-step", str(cfg["depth_step"]),
                   "--out", str(tmp_path / "loss.json")])
        assert rc == 0
        got = json.loads((tmp_path / "loss.json").read_text())
        assert got["depth"] > 0.0
        assert ((got["occ"], got["sem"], got["depth"])
                == (rows[i]["occ"], rows[i]["sem"], rows[i]["depth"]))


def test_run_without_in_range_depth_fails_in_loss_stage(tmp_path, scene_dir,
                                                        capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    gt_depth = read_tensor(inp / "gt_depth.msoc")
    write_tensor(inp / "gt_depth.msoc", np.full_like(gt_depth, np.inf))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage 'loss'" in err and "no valid depth pixels" in err
    assert not (out / "loss_report.json").exists()


def test_label_not_below_num_classes_is_validation_error(tmp_path, scene_dir,
                                                         capsys):
    # the class count is len(CLASS_NAMES) = 17, so label 17 is no class id
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    sem = read_tensor(inp / "gt_sem.msoc")
    sem[tuple(np.argwhere(sem != FREE)[0])] = 17
    write_tensor(inp / "gt_sem.msoc", sem)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage 'gt_pyramid' failed" in err
    assert "label 17 is neither a class id below 17" in err
    # the ground truth is checked before any other stage writes
    assert not out.exists()
    rc = main(["gt-downsample", "--occ", str(inp / "gt_occ.msoc"),
               "--sem", str(inp / "gt_sem.msoc"),
               "--mask", str(inp / "mask.msoc"),
               "--out", str(tmp_path / "pyr")])
    assert rc == 2
    assert "label 17 is neither a class id below 17" in capsys.readouterr().err
    assert not (tmp_path / "pyr").exists()


@pytest.mark.parametrize("where", ["occupied", "free"])
def test_label_outside_classes_names_gt_sem(tmp_path, scene_dir, capsys,
                                            where):
    # the label sits in gt_sem.msoc, so the error names that file; at a free
    # voxel the label is also inconsistent with gt_occ, and still the label
    # is reported
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    sem = read_tensor(inp / "gt_sem.msoc")
    pick = (sem != FREE) if where == "occupied" else (sem == FREE)
    sem[tuple(np.argwhere(pick)[0])] = 17
    write_tensor(inp / "gt_sem.msoc", sem)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'gt_pyramid' failed on {inp / 'gt_sem.msoc'}" in err
    assert "gt_occ.msoc" not in err and "num_classes" not in err
    assert not out.exists()


def test_occupancy_outside_0_1_is_validation_error(tmp_path, scene_dir,
                                                   capsys):
    # evaluation scores gt_sem as is, which is right only for 0/1 occupancy
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    occ = read_tensor(inp / "gt_occ.msoc")
    occ[occ == 1] = 2
    write_tensor(inp / "gt_occ.msoc", occ)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage 'gt_pyramid' failed" in err and "must be 0 or 1" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("ensemble_weights", [0.5], "ensemble_weights needs 2 weights, got 1"),
    ("ensemble_weights", [0.4, 0.3, 0.3], "needs 2 weights, got 3"),
    ("threshold_table", 5, "'threshold_table' has a value of the wrong type"),
    ("depth_min", "1", "'depth_min' has a value of the wrong type"),
    # keys that once were config fields and now have one home in the code
    ("num_classes", 17, "unknown config key 'num_classes'"),
    ("cost_stride", 4, "unknown config key 'cost_stride'"),
    ("gamma", 2.0, "unknown config key 'gamma'"),
    ("alphas", [1.0, 0.5, 0.25], "unknown config key 'alphas'"),
    ("weight_mode", "uniform", "unknown config key 'weight_mode'"),
    ("strides", [8, 16.5, 32], "'strides' has a value of the wrong type"),
    ("strides", None, "'strides' has a value of the wrong type"),
    ("depth_step", True, "'depth_step' has a value of the wrong type"),
    ("depth_step", 0, "depth_step must be positive"),
    ("depth_min", 0.0, "depth_min must be positive"),
    ("depth_max", 1.0, "frustum needs at least one depth bin"),
    ("strides", [8, 18, 32], "stride 18 is not a positive multiple of "
                             "the cost-volume stride 4"),
    ("strides", [8, -16, 32], "stride -16 is not a positive multiple"),
    ("ensemble_weights", [0.0, 1.0], "ensemble_weights must be positive "
                                     "and finite, got [0.0, 1.0]"),
    ("ensemble_weights", [0.45, float("nan")], "got [0.45, nan]"),
    # the 128x96 rig's stride-4 cost volume is 32x24; stride 12 pools it by 3
    ("strides", [12, 16, 32], "stride 12 pools the 24x32 cost-volume lattice "
                              "by 3, which does not divide it"),
], ids=["one_weight", "three_weights", "table_number", "depth_min_string",
        "num_classes_unknown", "cost_stride_unknown", "gamma_unknown",
        "alphas_unknown", "weight_mode_unknown", "stride_float",
        "strides_null", "depth_step_bool", "depth_step_zero",
        "depth_min_zero", "no_depth_bin", "stride_not_multiple",
        "stride_negative", "weight_zero", "weight_nan",
        "stride_not_dividing_lattice"])
def test_config_shapes_checked_before_any_stage(tmp_path, scene_dir, capsys,
                                                key, value, message):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    config = json.loads((inp / "config.json").read_text())
    config[key] = value
    (inp / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {inp / 'config.json'}" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("key", ["depth_min", "depth_max", "depth_step"])
def test_non_finite_depth_bins_fail_before_any_stage(tmp_path, scene_dir,
                                                     capsys, key, value):
    message = f"{key} must be finite, got {value}"
    with pytest.raises(ValueError, match=message):
        pipeline.PipelineConfig.from_dict({key: value})
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    config = json.loads((inp / "config.json").read_text())
    config[key] = value  # written as the Infinity / NaN that json reads back
    (inp / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {inp / 'config.json'}" in err
    assert message in err
    assert not out.exists()


def test_loss_and_eval_record_numeric_flags(tmp_path, scene_dir):
    rc = main(["loss",
               "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
               "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
               "--gt-occ", str(scene_dir / "gt_occ.msoc"),
               "--gt-sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--depth-min", "2.0", "--depth-max", "10.0",
               "--depth-step", "0.5",
               "--out", str(tmp_path / "loss.json")])
    assert rc == 0
    meta = json.loads((tmp_path / "loss.json.meta.json").read_text())
    assert (meta["depth_min"], meta["depth_max"], meta["depth_step"]) == \
        (2.0, 10.0, 0.5)

    labels = np.zeros((4, 4, 2), np.uint8)
    for name in ("pred", "gt", "mask"):
        write_tensor(tmp_path / f"{name}.msoc", labels + (name == "mask"))
    rc = main(["eval", "--pred", str(tmp_path / "pred.msoc"),
               "--gt", str(tmp_path / "gt.msoc"),
               "--mask", str(tmp_path / "mask.msoc"), "--include-free",
               "--out", str(tmp_path / "report.json")])
    assert rc == 0
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    # the class count comes from CLASS_NAMES, not from a flag
    assert meta["include_free"] is True and "num_classes" not in meta


@pytest.mark.parametrize("flag, value", [("--gamma", "1.5"),
                                         ("--weight-mode", "uniform")])
def test_loss_has_no_loss_weight_flags(tmp_path, scene_dir, capsys, flag,
                                       value):
    # the focal gamma and the class-frequency weights have one home each
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["loss",
              "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
              "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
              "--gt-occ", str(scene_dir / "gt_occ.msoc"),
              "--gt-sem", str(scene_dir / "gt_sem.msoc"),
              "--mask", str(scene_dir / "mask.msoc"), flag, value,
              "--out", str(tmp_path / "loss.json")])
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_gt_downsample_mask_shape_mismatch_is_validation_error(
        tmp_path, scene_dir, capsys):
    write_tensor(tmp_path / "mask.msoc", np.ones((12, 12, 16), np.uint8))
    capsys.readouterr()
    rc = main(["gt-downsample", "--occ", str(scene_dir / "gt_occ.msoc"),
               "--sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(tmp_path / "mask.msoc"),
               "--out", str(tmp_path / "pyr")])
    assert rc == 2
    assert "shape mismatch" in capsys.readouterr().err
    assert not (tmp_path / "pyr").exists()


def test_run_mask_shape_mismatch_fails_in_gt_pyramid(tmp_path, scene_dir,
                                                     capsys):
    # each ground-truth file is checked against grid.json under its own path
    for name in ("mask", "gt_sem"):
        inp = tmp_path / name / "inp"
        shutil.copytree(scene_dir, inp)
        write_tensor(inp / f"{name}.msoc", np.ones((12, 12, 16), np.uint8))
        capsys.readouterr()
        out = tmp_path / name / "out"
        assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"stage 'gt_pyramid' failed on {inp / name}.msoc" in err
        assert "shape (12, 12, 16), expected (40, 40, 8)" in err
        assert not out.exists()


@pytest.mark.parametrize("mode,atol", [("nearest", 0.0), ("trilinear", 1e-6)])
def test_warp_subcommand_identity(tmp_path, scene_dir, run_dir, mode, atol):
    src = run_dir / "voxel" / "frame01_scale0.msoc"
    (tmp_path / "identity.json").write_text(
        json.dumps(RigidTransform.identity().to_dict()))
    out = tmp_path / "warped.msoc"
    rc = main(["warp", "--input", str(src), "--grid", str(scene_dir / "grid.json"),
               "--transform", str(tmp_path / "identity.json"),
               "--mode", mode, "--out", str(out)])
    assert rc == 0
    warped, grid = read_tensor(out), read_tensor(src)
    assert warped.shape == grid.shape
    assert np.abs(warped.astype(np.float64) - grid).max() <= atol
    assert (tmp_path / "warped.msoc.meta.json").exists()


def test_corrupt_input_names_stage(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    bad = inp / "features" / "frame01_stride4.msoc"
    bad.write_bytes(b"garbage" * 8)
    with pytest.raises(pipeline.PipelineStageError) as err:
        pipeline.run_pipeline(str(inp), str(tmp_path / "out"))
    assert err.value.stage == "cost_volume"
    assert err.value.path == str(bad)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output", str(tmp_path / "o2")]) == 4
    assert "stage 'cost_volume'" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 63, 2),
                                  (0, 2 ** 63)],
                         ids=["product_wraps", "int64_overflow", "unallocatable"])
def test_corrupt_tensor_header_is_io_error(tmp_path, scene_dir, capsys, dims):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    bad = inp / "mask.msoc"
    bad.write_bytes(b"MSOC" + struct.pack("<HBB", 1, 2, len(dims))
                    + struct.pack(f"<{len(dims)}Q", *dims))
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(RigidTransform.identity().to_dict()))
    capsys.readouterr()
    assert main(["warp", "--input", str(bad),
                 "--grid", str(inp / "grid.json"), "--transform", str(identity),
                 "--out", str(tmp_path / "warped.msoc")]) == 4
    assert str(bad) in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 4
    assert f"stage 'gt_pyramid' failed on {bad}" in capsys.readouterr().err
    assert not (tmp_path / "warped.msoc").exists() and not out.exists()


def test_inf_prediction_is_numerical_error(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    entry = inp / "preds" / "model_a_entry0_occ.msoc"
    occ = read_tensor(entry)
    occ[0, 0, 0] = np.inf
    write_tensor(entry, occ)
    rc = main(["ensemble", "--preds", str(inp / "preds"),
               "--out-occ", str(tmp_path / "occ.msoc"),
               "--out-sem", str(tmp_path / "sem.msoc")])
    assert rc == 3
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output", str(tmp_path / "out")]) == 3
    assert "stage 'postprocess'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_semantic_prediction_is_numerical_error(tmp_path, scene_dir,
                                                          capsys, value):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    entry = inp / "preds" / "model_b_entry3_sem.msoc"
    sem = read_tensor(entry)
    sem[2, 1, 1, 0] = value
    write_tensor(entry, sem)
    capsys.readouterr()
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 3
    assert "ensembled semantics" in capsys.readouterr().err
    assert not (tmp_path / "sem.msoc").exists()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "stage 'postprocess'" in err and "ensembled semantics" in err
    assert not (tmp_path / "out" / "final_labels.msoc").exists()


def test_single_frame_rejected_before_any_stage(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    poses = json.loads((inp / "poses.json").read_text())
    (inp / "poses.json").write_text(json.dumps(poses[:1]))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    assert "poses.json" in capsys.readouterr().err
    assert not (out / "cost_volumes").exists()


@pytest.mark.parametrize("name", ["rig.json", "config.json"])
def test_truncated_input_names_stage_and_file(tmp_path, scene_dir, capsys,
                                              name):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    text = (inp / name).read_text()
    (inp / name).write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "stage 'inputs'" in err and name in err


@pytest.mark.parametrize("name, stage", [
    ("gt_sem.msoc", "gt_pyramid"),
    ("mask.msoc", "gt_pyramid"),
    ("gt_depth.msoc", "loss"),
    ("heads/sem_logits_scale1.msoc", "loss"),
    ("preds/model_b_entry3_sem.msoc", "postprocess"),
], ids=["gt_sem", "mask", "gt_depth", "sem_logits", "pred_entry"])
def test_truncated_tensor_names_its_own_file(tmp_path, scene_dir, capsys,
                                             name, stage):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / name
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 4
    assert f"stage {stage!r} failed on {path}:" in capsys.readouterr().err


def _drop_rig_cameras(rig):
    del rig["cameras"]


def _drop_grid_nz(grid):
    del grid["nz"]


def _drop_pose_rotation(poses):
    del poses[0]["rotation"]


@pytest.mark.parametrize("name, edit, key", [
    ("rig.json", _drop_rig_cameras, "cameras"),
    ("grid.json", _drop_grid_nz, "nz"),
    ("poses.json", _drop_pose_rotation, "rotation"),
], ids=["rig_cameras", "grid_nz", "pose_rotation"])
def test_missing_json_key_names_stage_and_file(tmp_path, scene_dir, capsys,
                                               name, edit, key):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {path}" in err and repr(key) in err


@pytest.mark.parametrize("command, flag, key", [
    ("cost-volume", "--pose-current", "rotation"),
    ("lift", "--rig", "cameras"),
    ("warp", "--grid", "nz"),
], ids=["cost-volume", "lift", "warp"])
def test_subcommand_missing_json_key_names_stage_and_file(
        tmp_path, scene_dir, capsys, command, flag, key):
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(
        json.loads((scene_dir / "poses.json").read_text())[0]))
    files = {"--rig": scene_dir / "rig.json", "--grid": scene_dir / "grid.json",
             "--pose-current": pose, "--pose-previous": pose,
             "--transform": pose}
    bad = tmp_path / "bad.json"
    doc = json.loads(files[flag].read_text())
    del doc[key]
    bad.write_text(json.dumps(doc))
    files[flag] = bad
    feats = str(scene_dir / "features" / "frame01_stride8.msoc")
    logits = str(scene_dir / "depth_logits" / "frame01_stride8.msoc")
    argv = {"cost-volume": ["--current", feats, "--previous", feats],
            "lift": ["--features", feats, "--depth-logits", logits],
            "warp": ["--input", feats]}[command]
    json_flags = {"cost-volume": ("--rig", "--pose-current", "--pose-previous"),
                  "lift": ("--rig", "--grid"),
                  "warp": ("--grid", "--transform")}[command]
    for f in json_flags:
        argv += [f, str(files[f])]
    capsys.readouterr()
    assert main([command, *argv, "--out", str(tmp_path / "out.msoc")]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {bad}" in err and repr(key) in err


@pytest.mark.parametrize("side", ["pred", "gt"])
def test_eval_label_outside_classes_is_validation_error(tmp_path, capsys, side):
    labels = np.zeros((4, 4, 2), np.uint8)
    write_tensor(tmp_path / "mask.msoc", np.ones_like(labels))
    bad = labels.copy()
    bad[1, 2, 0] = 20
    for name in ("pred", "gt"):
        write_tensor(tmp_path / f"{name}.msoc", bad if name == side else labels)
    capsys.readouterr()
    assert main(["eval", "--pred", str(tmp_path / "pred.msoc"),
                 "--gt", str(tmp_path / "gt.msoc"),
                 "--mask", str(tmp_path / "mask.msoc"),
                 "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "label 20" in err
    # the message names the file holding the label, and only that one
    other = "gt" if side == "pred" else "pred"
    assert str(tmp_path / f"{side}.msoc") in err
    assert str(tmp_path / f"{other}.msoc") not in err
    assert not (tmp_path / "report.json").exists()


def test_ensemble_holds_one_prediction_entry(scene_dir):
    preds = str(scene_dir / "preds")
    # one occupancy-sized float64 row; a float32 entry is 9 of them
    row = read_tensor(os.path.join(preds, "model_a_entry0_occ.msoc")).size * 8
    tracemalloc.start()
    try:
        postprocess.ensemble(*pipeline.load_prediction_sets(preds),
                             pipeline.PipelineConfig().ensemble_weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4.25 rows of TestEnsembleBytes.test_memory, plus the float32 row
    # that every sem file's class rows are read into; on top, a fixed 128 KiB
    # that does not scale with the grid: numpy's 64 KiB buffer for the
    # float32 -> float64 cast, and the handles of the 32 entry files
    assert peak <= 5 * row + 2 ** 17


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs Linux per-process fd listing")
@pytest.mark.parametrize("damage", ["truncated", "bad_magic"])
def test_damaged_prediction_file_fails_before_any_write(tmp_path, scene_dir,
                                                        capsys, damage):
    # every entry header is checked before the ensemble reads a payload
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    bad = inp / "preds" / "model_b_entry4_sem.msoc"  # mid model b, of 8
    data = bad.read_bytes()
    bad.write_bytes(data[:-1] if damage == "truncated" else b"MSOX" + data[4:])
    fds = len(os.listdir("/proc/self/fd"))
    capsys.readouterr()
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 4
    assert f"stage 'postprocess' failed on {bad}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["inp"]
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 4
    assert f"stage 'postprocess' failed on {bad}" in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("flag, value", [("--weight-a", "0"),
                                         ("--weight-b", "-1")],
                         ids=["a_zero", "b_negative"])
def test_ensemble_weights_must_be_positive(tmp_path, scene_dir, capsys, flag,
                                           value):
    out_occ = tmp_path / "occ.msoc"
    capsys.readouterr()
    assert main(["ensemble", "--preds", str(scene_dir / "preds"), flag, value,
                 "--out-occ", str(out_occ),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 2
    assert "two positive finite ensemble weights" in capsys.readouterr().err
    assert not out_occ.exists()


def _drop_model_b(tags):
    del tags["model_b"]


def _add_tag_field(tags):
    tags["model_a"][3]["vox_flip_z"] = True


@pytest.mark.parametrize("edit", [_drop_model_b, _add_tag_field],
                         ids=["no_model_b", "unknown_tag_field"])
def test_bad_tags_json_names_stage_and_file(tmp_path, scene_dir, capsys, edit):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "preds" / "tags.json"
    tags = json.loads(path.read_text())
    edit(tags)
    path.write_text(json.dumps(tags))
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 2
    assert f"stage 'postprocess' failed on {path}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "int",
                                                           "null"])
def test_tag_flip_values_must_be_booleans(tmp_path, scene_dir, capsys, value):
    # deaugment flips on truthiness, so a "false" string would flip
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "preds" / "tags.json"
    tags = json.loads(path.read_text())
    for td in tags["model_a"] + tags["model_b"]:
        if td["vox_flip_x"] is False:
            td["vox_flip_x"] = value
    path.write_text(json.dumps(tags))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    assert f"stage 'postprocess' failed on {path}" in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 2
    assert f"stage 'postprocess' failed on {path}" in capsys.readouterr().err
    assert not (tmp_path / "occ.msoc").exists()


def test_prediction_entries_off_the_grid_name_the_first_entry(
        tmp_path, scene_dir, capsys):
    # entries that agree with each other but not with grid.json
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    for path in sorted((inp / "preds").glob("*.msoc")):
        write_tensor(path, read_tensor(path)[..., :-2, :, :])
    first = inp / "preds" / "model_a_entry0_occ.msoc"
    grid = read_tensor(inp / "gt_occ.msoc").shape
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"stage 'postprocess' failed on {first}: shape "
            f"{(grid[0] - 2, *grid[1:])}, expected {grid}") in err
    assert not out.exists() or os.listdir(out) == []
    # `ensemble` has no grid: the entries only have to agree
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 0
    assert read_tensor(tmp_path / "sem.msoc").shape == (grid[0] - 2, *grid[1:])


def test_gt_depth_off_the_rig_names_its_file(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "gt_depth.msoc"
    depth = read_tensor(path)
    write_tensor(path, depth[:, :-8])
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    short = (depth.shape[0], depth.shape[1] - 8, depth.shape[2])
    assert (f"stage 'loss' failed on {path}: shape {short}, "
            f"expected {depth.shape}") in err
    assert not out.exists()  # checked before the first write


def test_numerical_failure_is_a_stage_error(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "heads" / "occ_logits_scale0.msoc"
    logits = read_tensor(path)
    logits[1, 2, 3] = np.nan
    write_tensor(path, logits)
    with pytest.raises(pipeline.PipelineStageError) as err:
        pipeline.run_pipeline(str(inp), str(tmp_path / "out"))
    assert err.value.stage == "loss"
    assert err.value.path == str(inp / "heads")
    assert isinstance(err.value.cause, NumericalError)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "o2")]) == 3
    assert (f"stage 'loss' failed on {inp / 'heads'}: losses: 1 NaN"
            in capsys.readouterr().err)


@pytest.mark.parametrize("label", [17, -1])
def test_gt_downsample_bad_label_names_sem_file(tmp_path, scene_dir, capsys,
                                                label):
    sem = read_tensor(scene_dir / "gt_sem.msoc").astype(np.int32)
    sem[tuple(np.argwhere(sem != FREE)[0])] = label
    path = tmp_path / "sem.msoc"
    write_tensor(path, sem)
    capsys.readouterr()
    assert main(["gt-downsample", "--occ", str(scene_dir / "gt_occ.msoc"),
                 "--sem", str(path), "--mask", str(scene_dir / "mask.msoc"),
                 "--out", str(tmp_path / "pyr")]) == 2
    err = capsys.readouterr().err
    assert f"stage 'gt_pyramid' failed on {path}: semantic label {label} " in err
    assert not (tmp_path / "pyr").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_nonfinite_depth_logits_is_numerical_error(tmp_path, scene_dir, capsys,
                                                   value):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "depth_logits" / "frame02_stride8.msoc"
    logits = read_tensor(path)
    logits[0, 0, 0, 0] = value
    write_tensor(path, logits)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"stage 'lift_stack' failed on {path}: depth logits" in err
    assert str(inp / "features") not in err
    assert main(["lift", "--features",
                 str(inp / "features" / "frame02_stride8.msoc"),
                 "--depth-logits", str(path), "--rig", str(inp / "rig.json"),
                 "--grid", str(inp / "grid.json"), "--stride", "8",
                 "--out", str(tmp_path / "lifted.msoc")]) == 3


def test_nan_lift_features_names_features_file(tmp_path, scene_dir, capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "features" / "frame02_stride8.msoc"
    feats = read_tensor(path)
    feats[1, 2, 3, 4] = np.nan
    write_tensor(path, feats)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    assert (f"stage 'lift_stack' failed on {path}: features"
            in capsys.readouterr().err)


def test_module_entry_point_warns_nothing():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for args in (["-m", "msocc.cli", "tta-enumerate"],
                 ["-c", "from msocc import *; cli.main"]):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               *args], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "table, code",
    [(None, 4), ({"Car": 0.5}, 2),
     ({name: "0.5" for name in postprocess.CLASS_NAMES}, 2)],
    ids=["missing_file", "missing_class", "not_a_number"])
def test_bad_threshold_table_fails_before_any_stage(tmp_path, scene_dir,
                                                    capsys, table, code):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    if table is not None:
        (inp / "table.json").write_text(json.dumps(table))
    config = json.loads((inp / "config.json").read_text())
    config["threshold_table"] = "table.json"
    (inp / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == code
    assert (f"stage 'inputs' failed on {inp / 'table.json'}"
            in capsys.readouterr().err)
    assert not (out / "cost_volumes").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_float32_overflow_is_numerical_error(tmp_path, scene_dir, capsys):
    # finite float32 features whose float64 products and sums overflow the
    # float32 outputs
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    for path in (inp / "features").iterdir():
        write_tensor(path, np.full_like(read_tensor(path), 3.0e38))
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    assert "stage 'cost_volume'" in capsys.readouterr().err
    assert main(["lift", "--features",
                 str(inp / "features" / "frame01_stride8.msoc"),
                 "--depth-logits",
                 str(inp / "depth_logits" / "frame01_stride8.msoc"),
                 "--rig", str(inp / "rig.json"), "--grid", str(inp / "grid.json"),
                 "--stride", "8", "--out", str(tmp_path / "lifted.msoc")]) == 3
    assert "lifted grid" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_past_frame_float32_overflow_fails_in_lift_stack(tmp_path, scene_dir,
                                                         capsys):
    # finite float32 features of one past frame whose float64 sums overflow
    # the float32 grid that is written and warped
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "features" / "frame01_stride8.msoc"
    write_tensor(path, np.full_like(read_tensor(path), 3.0e38))
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    logits = inp / "depth_logits" / "frame01_stride8.msoc"
    assert (f"stage 'lift_stack' failed on {logits}: lifted grid"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "voxel" / "stack_scale0.msoc").exists()


def test_config_and_metadata_hold_no_class_count(tmp_path, scene_dir,
                                                 run_dir, capsys):
    # the class count is len(CLASS_NAMES); no config field or flag sets it
    names = [f.name for f in dataclasses.fields(pipeline.PipelineConfig)]
    assert names == ["strides", "depth_min", "depth_max", "depth_step",
                     "ensemble_weights", "threshold_table"]
    assert sorted(json.loads((scene_dir / "config.json").read_text())) == \
        sorted(names)
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert sorted(meta["config"]) == sorted(names)
    files = ["--mask", str(scene_dir / "mask.msoc"),
             "--out", str(tmp_path / "out")]
    for argv in (["gt-downsample", "--occ", str(scene_dir / "gt_occ.msoc"),
                  "--sem", str(scene_dir / "gt_sem.msoc"), *files],
                 ["eval", "--pred", str(scene_dir / "gt_sem.msoc"),
                  "--gt", str(scene_dir / "gt_sem.msoc"), *files]):
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([*argv, "--num-classes", "17"])
        assert "unrecognized arguments: --num-classes" in \
            capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _class_rows(a, rows):
    """`a` with its leading class axis cut or repeated to `rows` rows."""
    return np.resize(a, (rows, *a.shape[1:]))


@pytest.mark.parametrize("rows", [5, 20])
def test_head_with_wrong_class_rows_fails_in_loss(tmp_path, scene_dir,
                                                  run_dir, capsys, rows):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "heads" / "sem_logits_scale1.msoc"
    sem = read_tensor(path)
    write_tensor(path, _class_rows(sem, rows))
    message = f"shape {(rows, *sem.shape[1:])}, expected {sem.shape}"
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'loss' failed on {path}" in err and message in err
    assert not out.exists()  # checked before the first write
    pyr = run_dir / "gt_pyramid"
    assert main(["loss", "--occ-logits",
                 str(inp / "heads" / "occ_logits_scale1.msoc"),
                 "--sem-logits", str(path),
                 "--gt-occ", str(pyr / "occ_scale1.msoc"),
                 "--gt-sem", str(pyr / "sem_scale1.msoc"),
                 "--mask", str(pyr / "mask_scale1.msoc"),
                 "--out", str(tmp_path / "loss.json")]) == 2
    err = capsys.readouterr().err
    assert f"stage 'loss' failed on {path}" in err and message in err
    assert not (tmp_path / "loss.json").exists()


@pytest.mark.parametrize("name", ["occ", "sem"])
def test_head_off_its_pyramid_level_names_its_file(tmp_path, scene_dir,
                                                   run_dir, capsys, name):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "heads" / f"{name}_logits_scale1.msoc"
    head = read_tensor(path)
    write_tensor(path, head[..., :-2, :, :])  # two rows cut off the x axis
    cut = (*head.shape[:-3], head.shape[-3] - 2, *head.shape[-2:])
    message = f"shape {cut}, expected {head.shape}"
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'loss' failed on {path}: {message}" in err
    assert not out.exists()  # checked before the first write
    pyr = run_dir / "gt_pyramid"
    heads = {f"--{n}-logits": str(inp / "heads" / f"{n}_logits_scale1.msoc")
             for n in ("occ", "sem")}
    assert main(["loss", *(a for kv in heads.items() for a in kv),
                 "--gt-occ", str(pyr / "occ_scale1.msoc"),
                 "--gt-sem", str(pyr / "sem_scale1.msoc"),
                 "--mask", str(pyr / "mask_scale1.msoc"),
                 "--out", str(tmp_path / "loss.json")]) == 2
    assert f"stage 'loss' failed on {path}: {message}" in \
        capsys.readouterr().err
    assert not (tmp_path / "loss.json").exists()


@pytest.mark.parametrize("rows", [5, 20])
def test_prediction_entry_with_wrong_class_rows_fails_in_postprocess(
        tmp_path, scene_dir, capsys, rows):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "preds" / "model_b_entry2_sem.msoc"
    sem = read_tensor(path)
    write_tensor(path, _class_rows(sem, rows))
    message = f"shape {(rows, *sem.shape[1:])}, expected {sem.shape}"
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'postprocess' failed on {path}" in err and message in err
    assert not out.exists() or os.listdir(out) == []
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 2
    err = capsys.readouterr().err
    assert f"stage 'postprocess' failed on {path}" in err and message in err
    assert not (tmp_path / "occ.msoc").exists()
    assert not (tmp_path / "sem.msoc").exists()


def _set(*keys_and_value):
    """An edit of a JSON document that sets the item at `keys` to `value`."""
    *keys, last, value = keys_and_value

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("poses.json", _set(-1, "translation", 0, float("nan")),
     "translation must be finite"),
    ("poses.json", _set(0, "translation", 1, float("nan")),
     "translation must be finite"),
    ("rig.json", _set("cameras", 1, "cam_to_ego", "translation", 2,
                      float("inf")), "translation must be finite"),
    ("rig.json", _set("cameras", 0, "intrinsics", "cx", float("nan")),
     "cx must be finite, got nan"),
    ("rig.json", _set("cameras", 1, "intrinsics", "fy", float("inf")),
     "fy must be finite, got inf"),
    ("rig.json", _set("cameras", 0, "intrinsics", "width", 128.0),
     "width must be an int, got 128.0"),
    ("rig.json", _set("cameras", 1, "intrinsics", "height", True),
     "height must be an int, got True"),
    ("grid.json", _set("origin", 0, float("nan")), "origin must be finite"),
    ("grid.json", _set("voxel_size", 2, float("inf")),
     "voxel_size must be finite"),
    ("grid.json", _set("nx", 40.0), "nx must be an int, got 40.0"),
    ("grid.json", _set("nz", True), "nz must be an int, got True"),
], ids=["last_pose_nan", "first_pose_nan", "camera_translation_inf",
        "cx_nan", "fy_inf", "width_float", "height_bool", "origin_nan",
        "voxel_size_inf", "nx_float", "nz_bool"])
def test_bad_geometry_fails_in_inputs(tmp_path, scene_dir, capsys, name, edit,
                                      message):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))  # NaN and inf as json writes them
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {path}" in err and message in err
    assert not out.exists()


def test_warp_nan_transform_fails_in_inputs(tmp_path, scene_dir, run_dir,
                                            capsys):
    bad = tmp_path / "motion.json"
    motion = RigidTransform.identity().to_dict()
    motion["translation"][0] = float("nan")
    bad.write_text(json.dumps(motion))
    capsys.readouterr()
    out = tmp_path / "warped.msoc"
    assert main(["warp", "--input",
                 str(run_dir / "voxel" / "frame01_scale0.msoc"),
                 "--grid", str(scene_dir / "grid.json"),
                 "--transform", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {bad}" in err
    assert "translation must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("dims", [(20, 20, 4), (80, 80, 16)],
                         ids=["coarser", "finer"])
def test_grid_must_match_ground_truth(tmp_path, scene_dir, capsys, dims):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    grid = json.loads((inp / "grid.json").read_text())
    grid.update(zip(("nx", "ny", "nz"), dims))
    (inp / "grid.json").write_text(json.dumps(grid))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'gt_pyramid' failed on {inp / 'gt_occ.msoc'}" in err
    assert f"shape (40, 40, 8), expected {dims}" in err
    assert not out.exists()


def test_no_scales_fails_in_inputs(tmp_path, scene_dir, capsys):
    with pytest.raises(ValueError, match="strides must name at least one"):
        pipeline.PipelineConfig.from_dict({"strides": []})
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    config = json.loads((inp / "config.json").read_text())
    config.update(strides=[])
    (inp / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {inp / 'config.json'}" in err
    assert "strides must name at least one scale" in err
    assert not out.exists()


def test_gt_downsample_zero_levels_is_validation_error(tmp_path, scene_dir,
                                                       capsys):
    capsys.readouterr()
    assert main(["gt-downsample", "--occ", str(scene_dir / "gt_occ.msoc"),
                 "--sem", str(scene_dir / "gt_sem.msoc"),
                 "--mask", str(scene_dir / "mask.msoc"), "--levels", "0",
                 "--out", str(tmp_path / "pyr")]) == 2
    assert "at least 1 pyramid level, got 0" in capsys.readouterr().err
    assert not (tmp_path / "pyr").exists()


@pytest.mark.parametrize("command", ["cost-volume", "lift"])
def test_stride_zero_is_validation_error(tmp_path, scene_dir, capsys, command):
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(
        json.loads((scene_dir / "poses.json").read_text())[0]))
    feats = str(scene_dir / "features" / "frame01_stride4.msoc")
    argv = {"cost-volume": ["--current", feats, "--previous", feats,
                            "--pose-current", str(pose),
                            "--pose-previous", str(pose)],
            "lift": ["--features", feats, "--depth-logits",
                     str(scene_dir / "depth_logits" / "frame01_stride8.msoc"),
                     "--grid", str(scene_dir / "grid.json")]}[command]
    capsys.readouterr()
    assert main([command, *argv, "--rig", str(scene_dir / "rig.json"),
                 "--stride", "0", "--out", str(tmp_path / "out.msoc")]) == 2
    assert "stride must be at least 1, got 0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["pose.json"]


@pytest.mark.parametrize("given, missing", [("--depth-logits", "--gt-depth"),
                                            ("--gt-depth", "--depth-logits")])
def test_loss_needs_both_depth_flags(tmp_path, scene_dir, capsys, given,
                                     missing):
    files = {"--depth-logits": scene_dir / "depth_logits" / "frame03_stride8.msoc",
             "--gt-depth": scene_dir / "gt_depth.msoc"}
    capsys.readouterr()
    assert main(["loss",
                 "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
                 "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
                 "--gt-occ", str(scene_dir / "gt_occ.msoc"),
                 "--gt-sem", str(scene_dir / "gt_sem.msoc"),
                 "--mask", str(scene_dir / "mask.msoc"),
                 given, str(files[given]),
                 "--out", str(tmp_path / "loss.json")]) == 2
    assert f"the depth term needs {missing}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
