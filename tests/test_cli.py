import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msocc import cli, fixtures, losses, pipeline, postprocess, temporal
from msocc.checks import NumericalError
from msocc.cli import build_parser, main
from msocc.geometry import (CameraRig, Intrinsics, RigidTransform,
                            VoxelGridSpec, relative_ego_motion)
from msocc.gt_multiscale import CLASS_NAMES, FREE
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


def test_run_without_config_uses_the_defaults(scene_dir, run_dir, tmp_path):
    # synth writes the default config.json, so leaving it out moves no byte
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    (inp / "config.json").unlink()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 0
    assert tree_hash(out) == tree_hash(run_dir)


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
    # zero parallax: every camera's every hypothesis scores the feature
    # self-correlation
    want = (feats.astype(np.float64) ** 2).mean(axis=1)
    assert cv.shape[:1] == feats.shape[:1]
    assert np.allclose(cv, want[:, None], atol=1e-5)
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


@pytest.mark.parametrize("text, message", [
    ("not json", "Expecting value"),
    (json.dumps({"Car": 0.5}), "threshold table missing classes"),
    ("0.5", "threshold table is not a JSON object: 0.5"),
], ids=["malformed", "missing_class", "not_an_object"])
def test_threshold_bad_table_names_its_file(tmp_path, capsys, text, message):
    write_tensor(tmp_path / "occ.msoc", np.full((2, 2, 2), 0.99))
    write_tensor(tmp_path / "sem.msoc", np.full((2, 2, 2), 4, np.uint8))
    table = tmp_path / "table.json"
    table.write_text(text)
    capsys.readouterr()
    rc = main(["threshold", "--occ-prob", str(tmp_path / "occ.msoc"),
               "--sem-labels", str(tmp_path / "sem.msoc"),
               "--table", str(table), "--out", str(tmp_path / "final.msoc")])
    assert rc == 2
    assert (f"stage 'threshold' failed on {table}: {message}"
            in capsys.readouterr().err)
    assert not (tmp_path / "final.msoc").exists()


def test_deaug_subcommand(tmp_path):
    occ = np.zeros((4, 4, 2)); occ[1, 0, 0] = 1.0
    sem = np.zeros((len(CLASS_NAMES), 4, 4, 2)); sem[0, 1, 0, 0] = 1.0
    write_tensor(tmp_path / "occ.msoc", occ)
    write_tensor(tmp_path / "sem.msoc", sem)
    rc = main(["deaug", "--occ", str(tmp_path / "occ.msoc"),
               "--sem", str(tmp_path / "sem.msoc"), "--vox-flip-x",
               "--out-occ", str(tmp_path / "o.msoc"),
               "--out-sem", str(tmp_path / "s.msoc")])
    assert rc == 0
    assert read_tensor(tmp_path / "o.msoc")[2, 0, 0] == 1.0


def test_deaug_sem_is_class_rows_of_occ(tmp_path, capsys):
    # --sem is K class rows of --occ, as `run` reads a prediction entry, so
    # a label grid given as --sem exits 2 naming it and writes nothing
    occ = np.zeros((4, 4, 2))
    write_tensor(tmp_path / "occ.msoc", occ)
    write_tensor(tmp_path / "sem.msoc", occ.astype(np.uint8))
    capsys.readouterr()
    rc = main(["deaug", "--occ", str(tmp_path / "occ.msoc"),
               "--sem", str(tmp_path / "sem.msoc"), "--vox-flip-x",
               "--out-occ", str(tmp_path / "o.msoc"),
               "--out-sem", str(tmp_path / "s.msoc")])
    assert rc == 2
    assert (f"stage 'deaug' failed on {tmp_path / 'sem.msoc'}: shape "
            f"(4, 4, 2), expected ({len(CLASS_NAMES)}, 4, 4, 2)"
            in capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == ["occ.msoc", "sem.msoc"]


def test_tta_enumerate_subcommand(tmp_path, capsys):
    rc = main(["tta-enumerate"])
    assert rc == 0
    printed = capsys.readouterr().out
    tags = json.loads(printed)
    assert len(tags) == 8
    assert tags[0] == {"img_hflip": False, "vox_flip_x": False,
                      "vox_flip_y": False}
    # --out writes what it prints, and prints nothing
    assert main(["tta-enumerate", "--out", str(tmp_path / "tags.json")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "tags.json").read_text() + "\n" == printed


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


def test_rescaled_cost_volumes_pool_the_written_volume(scene_dir, run_dir):
    written = sorted((run_dir / "cost_volumes").glob("*_stride4.msoc"))
    assert len(written) == 3  # one camera stack per frame pair
    for path in written:
        cv = read_tensor(path)
        for s in (8, 16, 32):
            name = path.name.replace("stride4", f"stride{s}")
            want = read_tensor(path.with_name(name))
            got = temporal.rescale_cost_volume(cv, s)
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes()
            # each stride's stack pairs with that frame's depth logits
            assert want.shape == read_tensor(
                scene_dir / "depth_logits" / name).shape


def test_cost_volume_stack_slices_are_camera_volumes(scene_dir, run_dir):
    # camera i's slice of a written stack is camera i's own sweep in float32
    cfg = pipeline.PipelineConfig.from_dict(
        json.loads((scene_dir / "config.json").read_text()))
    rig = CameraRig.from_json((scene_dir / "rig.json").read_text())
    poses = [RigidTransform.from_dict(d)
             for d in json.loads((scene_dir / "poses.json").read_text())]
    name = "frame{:02d}_stride4.msoc"
    feats = [read_tensor(scene_dir / "features" / name.format(t))
             for t in range(len(poses))]
    for t in range(1, len(poses)):
        stack = read_tensor(run_dir / "cost_volumes" / name.format(t))
        assert stack.shape[:2] == (len(rig), pipeline.frustum(cfg).num_bins)
        for cam, (k, cam_to_ego) in enumerate(rig.cameras):
            want = temporal.build_cost_volume(
                feats[t][cam], feats[t - 1][cam],
                relative_ego_motion(poses[t - 1], poses[t]),
                k.scaled(temporal.COST_STRIDE), pipeline.frustum(cfg),
                cam_to_ego=cam_to_ego)
            assert stack[cam].tobytes() == want.astype(np.float32).tobytes()


def test_cost_volume_subcommand_matches_run(tmp_path, scene_dir, run_dir):
    # the subcommand takes the run's own (N, C, H, W) feature files and
    # writes the run's camera stack
    poses = json.loads((scene_dir / "poses.json").read_text())
    for t in range(len(poses)):
        (tmp_path / f"pose{t}.json").write_text(json.dumps(poses[t]))
    feats = str(scene_dir / "features" / "frame{:02d}_stride4.msoc")
    for t in range(1, len(poses)):
        out = tmp_path / f"cv{t}.msoc"
        rc = main(["cost-volume", "--current", feats.format(t),
                   "--previous", feats.format(t - 1),
                   "--rig", str(scene_dir / "rig.json"),
                   "--pose-current", str(tmp_path / f"pose{t}.json"),
                   "--pose-previous", str(tmp_path / f"pose{t - 1}.json"),
                   "--out", str(out)])
        assert rc == 0
        want = (run_dir / "cost_volumes" /
                f"frame{t:02d}_stride4.msoc").read_bytes()
        assert out.read_bytes() == want


@pytest.mark.parametrize("stride, cameras, message", [
    # the stride-8 features are 12x16; the rig at stride 4 is 24x32
    (8, 2, "shape (2, 8, 12, 16), expected (2, None, 24, 32)"),
    # the current frame holds one camera of the 2-camera rig
    (4, 1, "shape (1, 8, 24, 32), expected (2, None, 24, 32)"),
], ids=["stride", "camera"])
def test_cost_volume_features_must_fit_rig(tmp_path, scene_dir, capsys,
                                           stride, cameras, message):
    path = scene_dir / "features" / f"frame01_stride{stride}.msoc"
    cur = tmp_path / "cur.msoc"
    write_tensor(cur, read_tensor(path)[:cameras])
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps(
        json.loads((scene_dir / "poses.json").read_text())[0]))
    capsys.readouterr()
    assert main(["cost-volume", "--current", str(cur), "--previous", str(path),
                 "--rig", str(scene_dir / "rig.json"),
                 "--pose-current", str(pose), "--pose-previous", str(pose),
                 "--out", str(tmp_path / "cv.msoc")]) == 2
    assert (f"stage 'cost_volume' failed on {cur}: {message}"
            in capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == ["cur.msoc", "pose.json"]


def test_lift_stride_must_match_features(tmp_path, scene_dir, capsys):
    capsys.readouterr()
    assert main(["lift",
                 "--features", str(scene_dir / "features" / "frame01_stride8.msoc"),
                 "--depth-logits",
                 str(scene_dir / "depth_logits" / "frame01_stride8.msoc"),
                 "--rig", str(scene_dir / "rig.json"),
                 "--grid", str(scene_dir / "grid.json"),
                 "--stride", "16", "--out", str(tmp_path / "lifted.msoc")]) == 2
    # stride 16 puts the 128x96 rig on a 6x8 lattice; the features are 12x16
    path = scene_dir / "features" / "frame01_stride8.msoc"
    assert (f"stage 'lift_stack' failed on {path}: shape (2, 8, 12, 16), "
            f"expected (2, None, 6, 8)") in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_run_features_off_the_rig_lattice_name_their_file(tmp_path, scene_dir,
                                                          capsys):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "features" / "frame01_stride8.msoc"
    shutil.copy(inp / "features" / "frame01_stride4.msoc", path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    # the header check, before the first write, sees the stride-4 lattice
    assert (f"stage 'lift_stack' failed on {path}: shape (2, 8, 24, 32), "
            f"expected (2, None, 12, 16)") in capsys.readouterr().err
    assert not out.exists()


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

    def counting_read(path, *part):
        reads.append(os.path.basename(path))
        return read_tensor(path, *part)

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


def test_gt_downsample_subcommand_matches_run(tmp_path, scene_dir, run_dir):
    assert main(["gt-downsample", "--occ", str(scene_dir / "gt_occ.msoc"),
                 "--sem", str(scene_dir / "gt_sem.msoc"),
                 "--mask", str(scene_dir / "mask.msoc"),
                 "--out", str(tmp_path / "pyr")]) == 0
    names = sorted(os.listdir(run_dir / "gt_pyramid"))
    assert len(names) == 3 * len(pipeline.STRIDES)
    assert sorted(os.listdir(tmp_path / "pyr")) == sorted(
        [*names, "metadata.json"])
    for name in names:
        assert (tmp_path / "pyr" / name).read_bytes() == \
            (run_dir / "gt_pyramid" / name).read_bytes(), name


def _boundary_predictions(scene_dir, inp):
    """A copy of scene_dir whose model a entries hold the float32 just
    below 0.92, model b's 0.92 itself, and whose semantics are one-hot on
    class 0 (threshold 0.92): the fused float64 falls below the threshold,
    and its float32, as written, does not."""
    shutil.copytree(scene_dir, inp)
    shape = read_tensor(scene_dir / "gt_occ.msoc").shape
    below = np.nextafter(np.float32(0.92), np.float32(0))
    sem = np.zeros((len(CLASS_NAMES), *shape), np.float32)
    sem[0] = 1.0
    tags = json.loads((inp / "preds" / "tags.json").read_text())
    for model, value in (("a", below), ("b", np.float32(0.92))):
        for j in range(len(tags[f"model_{model}"])):
            entry = inp / "preds" / f"model_{model}_entry{j}_{{}}.msoc"
            write_tensor(str(entry).format("occ"),
                         np.full(shape, value, np.float32))
            write_tensor(str(entry).format("sem"), sem)
    occ = postprocess.ensemble(*pipeline.load_prediction_sets(
        str(inp / "preds")), pipeline.PipelineConfig().ensemble_weights)[0]
    assert (occ < 0.92).all() and (occ.astype(np.float32) >= 0.92).all()


@pytest.mark.parametrize("preds", ["golden", "boundary"])
def test_threshold_subcommand_matches_run(tmp_path, scene_dir, run_dir,
                                          preds):
    # `run` thresholds the float32 occ_prob.msoc it writes, so ensemble ->
    # threshold over its files gives its final_labels.msoc
    inp, out = scene_dir, run_dir
    if preds == "boundary":
        inp, out = tmp_path / "inp", tmp_path / "out"
        _boundary_predictions(scene_dir, inp)
        assert main(["run", "--input", str(inp), "--output", str(out)]) == 0
        assert (read_tensor(out / "final_labels.msoc") == 0).all()
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 0
    assert main(["threshold", "--occ-prob", str(tmp_path / "occ.msoc"),
                 "--sem-labels", str(tmp_path / "sem.msoc"),
                 "--out", str(tmp_path / "final.msoc")]) == 0
    assert (tmp_path / "final.msoc").read_bytes() == \
        (out / "final_labels.msoc").read_bytes()


def test_eval_subcommand_matches_run(tmp_path, scene_dir, run_dir):
    assert main(["eval", "--pred", str(run_dir / "final_labels.msoc"),
                 "--gt", str(scene_dir / "gt_sem.msoc"),
                 "--mask", str(scene_dir / "mask.msoc"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_bytes() == \
        (run_dir / "eval_report.json").read_bytes()


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


@pytest.mark.parametrize("scored", [True, False], ids=["scored", "unscored"])
def test_nonfinite_semantic_head_fails_in_loss_where_scored(
        tmp_path, scene_dir, run_dir, capsys, scored):
    # the focal loss reads the head's masked occupied voxels alone: a NaN
    # there fails `run` and `msocc loss` in stage `loss`, and a NaN outside
    # the mask changes neither report
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    occ = read_tensor(inp / "gt_occ.msoc")
    mask = read_tensor(inp / "mask.msoc")
    at = np.argwhere((mask == 1) & (occ == 1) if scored else mask == 0)[0]
    path = inp / "heads" / "sem_logits_scale0.msoc"
    logits = read_tensor(path)
    logits[(3, *at)] = np.nan
    write_tensor(path, logits)
    out = tmp_path / "out"

    def loss_argv(sem_logits, name):
        return ["loss",
                "--occ-logits", str(inp / "heads" / "occ_logits_scale0.msoc"),
                "--sem-logits", str(sem_logits),
                "--gt-occ", str(inp / "gt_occ.msoc"),
                "--gt-sem", str(inp / "gt_sem.msoc"),
                "--mask", str(inp / "mask.msoc"),
                "--out", str(tmp_path / name)]

    capsys.readouterr()
    codes = (main(["run", "--input", str(inp), "--output", str(out)]),
             main(loss_argv(path, "loss.json")))
    err = capsys.readouterr().err
    if scored:
        assert codes == (3, 3)
        assert err.count("stage 'loss'") == 2
        assert err.count("losses: 1 NaN") == 2
        assert not (out / "loss_report.json").exists()
        assert not (tmp_path / "loss.json").exists()
        return
    assert codes == (0, 0)
    assert (out / "loss_report.json").read_bytes() == \
        (run_dir / "loss_report.json").read_bytes()
    assert main(loss_argv(scene_dir / "heads" / "sem_logits_scale0.msoc",
                          "want.json")) == 0
    assert (tmp_path / "loss.json").read_bytes() == \
        (tmp_path / "want.json").read_bytes()


def test_loss_reads_the_semantic_head_by_class_row(scene_dir):
    gt = pipeline.read_pyramid(
        "loss", *(scene_dir / f"{n}.msoc" for n in ("gt_occ", "gt_sem", "mask")),
        levels=1)
    occ, sem, mask = gt.occ[0], gt.sem[0], gt.mask[0]
    occ_logits = read_tensor(scene_dir / "heads" / "occ_logits_scale0.msoc")
    path = scene_dir / "heads" / "sem_logits_scale0.msoc"
    head = pipeline._InputFile("loss", path, (len(CLASS_NAMES), *occ.shape))
    cfg = pipeline.PipelineConfig()
    row = occ.size * 8  # one float64 row of the grid
    tracemalloc.start()
    try:
        got = pipeline.scale_losses(cfg, occ_logits, head, occ, sem, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pipeline.scale_losses(cfg, occ_logits, read_tensor(path),
                                        occ, sem, mask)
    # a (K, nx, ny, nz) float64 head is 17 rows. BCE holds about 7 rows,
    # and the focal loss's (K, n) arrays over the 9 % of voxels this scene
    # scores hold about 1.5 rows each
    assert peak <= 12 * row


@pytest.mark.parametrize("shape", [(len(CLASS_NAMES) - 1, 40, 40, 8),
                                   (len(CLASS_NAMES), 40, 40, 7)],
                         ids=["class_rows", "grid"])
def test_scale_losses_rejects_a_head_off_the_grid(shape):
    occ = np.ones((40, 40, 8), np.uint8)
    with pytest.raises(ValueError, match=re.escape(
            f"semantic head shape mismatch: {shape}, expected (17, 40, 40, 8)")):
        pipeline.scale_losses(pipeline.PipelineConfig(), np.zeros(occ.shape),
                              np.zeros(shape), occ, occ, occ.astype(bool))


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
    for i, s in enumerate(pipeline.STRIDES):
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
    # STRIDES and the 1 m depth step are fixed too: whatever value these
    # keys hold, a float, null, a bool, 0 or a stride off the lattice, the
    # key itself is unknown
    ("strides", [8, 16.5, 32], "unknown config key 'strides'"),
    ("strides", None, "unknown config key 'strides'"),
    ("depth_step", True, "unknown config key 'depth_step'"),
    ("depth_step", 0, "unknown config key 'depth_step'"),
    ("depth_min", 0.0, "depth_min must be positive"),
    ("depth_max", 1.0, "frustum needs at least one depth bin"),
    ("strides", [8, 18, 32], "unknown config key 'strides'"),
    ("strides", [8, -16, 32], "unknown config key 'strides'"),
    ("ensemble_weights", [0.0, 1.0], "ensemble_weights must be positive "
                                     "and finite, got [0.0, 1.0]"),
    ("ensemble_weights", [0.45, float("nan")], "got [0.45, nan]"),
    # a rig of image height 16 has no row at stride 32, so that stride's
    # lattice is empty; the rig's image size is the only input at fault
    ("height", 16, "image size must be positive"),
], ids=["one_weight", "three_weights", "table_number", "depth_min_string",
        "num_classes_unknown", "cost_stride_unknown", "gamma_unknown",
        "alphas_unknown", "weight_mode_unknown", "stride_float",
        "strides_null", "depth_step_bool", "depth_step_zero",
        "depth_min_zero", "no_depth_bin", "stride_not_multiple",
        "stride_negative", "weight_zero", "weight_nan",
        "empty_lattice"])
def test_config_shapes_checked_before_any_stage(tmp_path, scene_dir, capsys,
                                                key, value, message):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / ("rig.json" if key == "height" else "config.json")
    doc = json.loads(path.read_text())
    if key == "height":  # every camera's, as the rig's cameras share a size
        for cam in doc["cameras"]:
            cam["intrinsics"][key] = value
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage 'inputs' failed on {path}" in err
    assert message in err
    assert not out.exists()


def test_strides_are_multiples_of_the_cost_stride():
    # each scale's cost volume pools the stride-4 volume by an integer
    assert all(s % temporal.COST_STRIDE == 0 for s in pipeline.STRIDES)


@pytest.mark.parametrize("height", [900, 102, 100, 97])
def test_image_size_off_every_stride_runs_end_to_end(tmp_path, height):
    # frame_shape's H // s x W // s is the one stride-s lattice: synth emits
    # on it, and run pools the cost volumes and samples the depth on it, so
    # an image height that no stride, or only some, divides runs. Height
    # 900 is that of the nuScenes cameras
    inp, out = tmp_path / "inp", tmp_path / "out"
    assert main(["synth", "--out", str(inp), "--seed", "3", "--cameras", "2",
                 "--boxes", "4", "--frames", "2", "--image-width", "64",
                 "--image-height", str(height)]) == 0
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 0
    assert json.loads((out / "eval_report.json").read_text())["miou"] == 1.0
    for s in pipeline.STRIDES:
        cv = read_tensor(out / "cost_volumes" / f"frame01_stride{s}.msoc")
        logits = read_tensor(inp / "depth_logits" / f"frame01_stride{s}.msoc")
        assert cv.shape == logits.shape == (2, 12, height // s, 64 // s)


def test_synth_of_an_empty_lattice_writes_nothing(tmp_path, capsys):
    # a 16-pixel-high rig has no row at stride 32, as `run` rejects it
    capsys.readouterr()
    assert main(["synth", "--out", str(tmp_path / "inp"), "--cameras", "2",
                 "--frames", "2", "--image-height", "16"]) == 2
    assert "image size must be positive" in capsys.readouterr().err
    assert not (tmp_path / "inp").exists()


def test_depth_at_samples_the_frame_shape_lattice():
    # for every image height and width, on each stride's lattice or off it,
    # the depth samples have frame_shape's rows and columns, one at each
    # pixel center. Each size pairs with another, so no rig is square
    strides = (temporal.COST_STRIDE, *pipeline.STRIDES)
    for h, w in zip(range(32, 200), range(199, 31, -1)):
        rig = CameraRig(((Intrinsics(1.0, 1.0, 0.0, 0.0, w, h),
                          RigidTransform.identity()),))
        depth = np.arange(h * 1000.0).reshape(1, h, 1000)[..., :w]
        for s in strides:
            got = pipeline.depth_at(depth, s)
            n, _, rows, cols = pipeline.frame_shape(rig, s)
            assert got.shape == (n, rows, cols), (h, w, s)
            v = np.arange(rows) * s + s // 2
            u = np.arange(cols) * s + s // 2
            assert (got[0] == 1000 * v[:, None] + u).all(), (h, w, s)


@pytest.mark.parametrize("cameras", [1, 3], ids=["fewer", "more"])
@pytest.mark.parametrize("stack", ["current", "previous"])
def test_cost_volume_pairs_cameras_strictly(scene_dir, cameras, stack):
    # a feature stack with one camera fewer or more than the 2-camera rig
    # raises ValueError, which the CLI maps to exit 2; no camera is dropped
    # silently and no IndexError escapes
    rig = CameraRig.from_json((scene_dir / "rig.json").read_text())
    feats = {t: read_tensor(scene_dir / "features" / f"frame{i:02d}_stride4.msoc")
             for i, t in enumerate(["previous", "current"])}
    feats[stack] = np.concatenate([feats[stack]] * 2)[:cameras]
    with pytest.raises(ValueError, match="zip"):
        pipeline.cost_volume(pipeline.PipelineConfig(), rig, feats["current"],
                             feats["previous"], RigidTransform.identity())


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("key", ["depth_min", "depth_max"])
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


def test_config_is_checked_whenever_made():
    # every way of making one runs the checks config.json's do
    with pytest.raises(ValueError, match="depth_min must be positive"):
        pipeline.PipelineConfig(depth_min=0)
    with pytest.raises(ValueError, match="needs 2 weights, got 3"):
        pipeline.PipelineConfig(ensemble_weights=(1.0, 1.0, 1.0))
    cfg = pipeline.PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.depth_min = 0.0
    assert pipeline.PipelineConfig.from_dict(
        {"ensemble_weights": [0.5, 0.5]}) == \
        pipeline.PipelineConfig(ensemble_weights=(0.5, 0.5))


@pytest.mark.parametrize("key, value", [
    ("threshold_table", 5), ("ensemble_weights", (True, 1.0)),
    ("ensemble_weights", 0.5), ("depth_min", "1"), ("depth_max", None),
], ids=["table_number", "weight_bool", "weights_number", "depth_min_string",
        "depth_max_null"])
def test_config_types_are_checked_whenever_made(key, value):
    # as config.json's are, before any value check can trip on the type
    with pytest.raises(ValueError, match=f"config key '{key}' has a value of "
                                         f"the wrong type"):
        pipeline.PipelineConfig(**{key: value})


def test_config_made_with_a_list_is_a_hashable_tuple():
    cfg = pipeline.PipelineConfig(ensemble_weights=[0.5, 0.5])
    assert cfg.ensemble_weights == (0.5, 0.5)
    assert hash(cfg) == hash(pipeline.PipelineConfig(ensemble_weights=(0.5, 0.5)))


@pytest.mark.parametrize("text", ["[1, 2]", '"x"'], ids=["list", "string"])
def test_config_that_is_no_json_object_fails_in_inputs(tmp_path, scene_dir,
                                                       capsys, text):
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    (inp / "config.json").write_text(text)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    assert (f"stage 'inputs' failed on {inp / 'config.json'}: config is not "
            f"a JSON object: {json.loads(text)!r}") in capsys.readouterr().err
    assert not out.exists()


BAD_DEPTH_FLAGS = {
    "depth_min_negative": (["--depth-min", "-1"], "depth_min must be positive"),
    "depth_max_below_min": (["--depth-min", "5", "--depth-max", "2"],
                            "frustum needs at least one depth bin"),
    "no_depth_bin": (["--depth-max", "0.5"],
                     "frustum needs at least one depth bin")}


BAD_CONFIG_FLAGS = {
    **{f"{command}-{case}": (command, *BAD_DEPTH_FLAGS[case])
       for command in ("synth", "cost-volume", "lift", "loss")
       for case in BAD_DEPTH_FLAGS},
    "ensemble-weight_b_negative": (
        "ensemble", ["--weight-b", "-1"],
        "ensemble_weights must be positive and finite, got [0.45, -1.0]")}


@pytest.mark.parametrize("command, flags, message", BAD_CONFIG_FLAGS.values(),
                         ids=BAD_CONFIG_FLAGS)
def test_bad_config_flags_fail_before_any_read(
        tmp_path, subcommand_inputs, capsys, command, flags, message):
    # every tensor path is missing, so exit 2 shows that the flags failed
    # in the config's own check, which names no stage, before a file read;
    # synth makes no directory
    missing = tmp_path / "missing"
    if command == "synth":
        argv = ["synth", "--out", str(tmp_path / "inp")]
    elif command == "ensemble":
        argv = ["ensemble", "--preds", str(missing), "--out-occ",
                str(tmp_path / "occ"), "--out-sem", str(tmp_path / "sem")]
    else:
        argv = _subcommand_argv(
            subcommand_inputs, command, tmp_path,
            dict.fromkeys(subcommand_inputs[command][0], missing))
    capsys.readouterr()
    assert main([*argv, *flags]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "stage" not in err
    assert os.listdir(tmp_path) == []


def test_loss_bad_depth_flag_fails_without_a_depth_term(
        tmp_path, subcommand_inputs, capsys):
    # the depth flags configure the depth term, yet are checked without one
    argv = _without_depth_term(_subcommand_argv(subcommand_inputs, "loss",
                                                tmp_path))
    capsys.readouterr()
    assert main([*argv, "--depth-min", "0"]) == 2
    assert "error: depth_min must be positive" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_loss_and_eval_record_numeric_flags(tmp_path, scene_dir):
    rc = main(["loss",
               "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
               "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
               "--gt-occ", str(scene_dir / "gt_occ.msoc"),
               "--gt-sem", str(scene_dir / "gt_sem.msoc"),
               "--mask", str(scene_dir / "mask.msoc"),
               "--depth-min", "2.0", "--depth-max", "10.0",
               "--out", str(tmp_path / "loss.json")])
    assert rc == 0
    meta = json.loads((tmp_path / "loss.json.meta.json").read_text())
    assert (meta["depth_min"], meta["depth_max"]) == (2.0, 10.0)

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


def _gt_downsample_off_shape(tmp_path, scene_dir, capsys, name):
    """`msocc gt-downsample` with its `name` file replaced by a (12, 12, 16)
    one; the stderr it exits 2 with, the error naming that file."""
    files = {n: scene_dir / f"{n}.msoc" for n in ("gt_occ", "gt_sem", "mask")}
    files[name] = tmp_path / f"{name}.msoc"
    write_tensor(files[name], np.ones((12, 12, 16), np.uint8))
    capsys.readouterr()
    rc = main(["gt-downsample", "--occ", str(files["gt_occ"]),
               "--sem", str(files["gt_sem"]), "--mask", str(files["mask"]),
               "--out", str(tmp_path / "pyr")])
    assert rc == 2
    assert not (tmp_path / "pyr").exists()
    return capsys.readouterr().err


def test_gt_downsample_mask_shape_mismatch_is_validation_error(
        tmp_path, scene_dir, capsys):
    err = _gt_downsample_off_shape(tmp_path, scene_dir, capsys, "mask")
    assert (f"stage 'gt_pyramid' failed on {tmp_path / 'mask.msoc'}: "
            "shape (12, 12, 16), expected (40, 40, 8)") in err


def test_gt_downsample_sem_shape_mismatch_names_sem_file(tmp_path, scene_dir,
                                                         capsys):
    err = _gt_downsample_off_shape(tmp_path, scene_dir, capsys, "gt_sem")
    assert (f"stage 'gt_pyramid' failed on {tmp_path / 'gt_sem.msoc'}: "
            "shape (12, 12, 16), expected (40, 40, 8)") in err


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
    # in stage `postprocess` on the predictions, as in `run`
    assert (f"stage 'postprocess' failed on {inp / 'preds'}: ensembled "
            "semantics" in capsys.readouterr().err)
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
    ("features/frame00_stride4.msoc", "cost_volume"),
    ("features/frame02_stride16.msoc", "lift_stack"),
    ("depth_logits/frame02_stride16.msoc", "lift_stack"),
], ids=["gt_sem", "mask", "gt_depth", "sem_logits", "pred_entry",
        "cost_features", "lift_features", "lift_depth_logits"])
def test_truncated_tensor_names_its_own_file(tmp_path, scene_dir, capsys,
                                             name, stage):
    # every input tensor's header is checked before the first write
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / name
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 4
    assert f"stage {stage!r} failed on {path}:" in capsys.readouterr().err
    assert not out.exists()


def _one_channel_fewer(arr):
    return arr[:, :-1]


def _one_column_fewer(arr):
    return arr[..., :-1]


@pytest.mark.parametrize("name, damage, stage, want", [
    ("features/frame02_stride4.msoc", _one_channel_fewer, "cost_volume",
     (2, 8, 24, 32)),
    ("features/frame00_stride4.msoc", _one_column_fewer, "cost_volume",
     (2, None, 24, 32)),
    ("features/frame01_stride32.msoc", _one_column_fewer, "lift_stack",
     (2, None, 3, 4)),
    ("depth_logits/frame02_stride8.msoc", _one_channel_fewer, "lift_stack",
     (2, 12, 12, 16)),
    ("depth_logits/frame03_stride32.msoc", _one_column_fewer, "lift_stack",
     (2, 12, 3, 4)),
    ("features/frame03_stride16.msoc", _one_channel_fewer, "lift_stack",
     (2, 8, 6, 8)),
], ids=["cost_channels", "cost_lattice", "lift_lattice", "depth_bins",
        "depth_lattice", "lift_channels"])
def test_frame_tensor_of_another_shape_fails_before_any_write(
        tmp_path, scene_dir, capsys, name, damage, stage, want):
    # a frame tensor has (N, C, H // s, W // s) or (N, D, H // s, W // s),
    # and every later frame at a stride the first one's shape, C included;
    # the 2-camera 128x96 scene has 8 channels and 12 depth bins
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / name
    arr = damage(read_tensor(path))
    write_tensor(path, arr)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    assert (f"stage {stage!r} failed on {path}: shape {arr.shape}, "
            f"expected {want}") in capsys.readouterr().err
    assert not out.exists()


def _output_stage(rel):
    """The stage of `run` that writes output `rel`."""
    stages = {"gt_pyramid": "gt_pyramid", "cost_volumes": "cost_volume",
              "voxel": "lift_stack", "loss_report.json": "loss",
              "metadata.json": "metadata"}
    return stages.get(rel.split("/")[0], "postprocess")


def test_every_write_of_run_names_its_stage(tmp_path, run_dir, scene_dir,
                                            capsys):
    # a directory on each output path, or a file on each output directory,
    # fails that write with exit 4 in the stage that writes it
    written = sorted(p.relative_to(run_dir).as_posix()
                     for p in run_dir.rglob("*"))
    assert {"voxel/stack_scale0.msoc", "metadata.json", "voxel",
            "cost_volumes"} <= set(written)
    for i, rel in enumerate(written):
        out = tmp_path / f"out{i}"
        if (run_dir / rel).is_dir():
            (out / rel).parent.mkdir(parents=True)
            (out / rel).write_bytes(b"")
        else:
            (out / rel).mkdir(parents=True)
        capsys.readouterr()
        assert main(["run", "--input", str(scene_dir),
                     "--output", str(out)]) == 4, rel
        err = capsys.readouterr().err
        stage = _output_stage(rel)
        assert err.startswith(f"error: stage {stage!r} failed on "), err
        assert str(out / rel) in err, err


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


@pytest.mark.parametrize("flag, value, weights", [
    ("--weight-a", "0", "[0.0, 0.55]"), ("--weight-b", "-1", "[0.45, -1.0]")],
    ids=["a_zero", "b_negative"])
def test_ensemble_weights_must_be_positive(tmp_path, scene_dir, capsys, flag,
                                           value, weights):
    # the flags make a PipelineConfig, whose check blames them, not the
    # predictions: no stage is named
    out_occ = tmp_path / "occ.msoc"
    capsys.readouterr()
    assert main(["ensemble", "--preds", str(scene_dir / "preds"), flag, value,
                 "--out-occ", str(out_occ),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 2
    err = capsys.readouterr().err
    assert (f"error: ensemble_weights must be positive and finite, got "
            f"{weights}") in err
    assert "stage" not in err
    assert os.listdir(tmp_path) == []


def _drop_model_b(tags):
    del tags["model_b"]


def _add_tag_field(tags):
    tags["model_a"][3]["vox_flip_z"] = True


def _empty_model_a(tags):
    tags["model_a"] = []


@pytest.mark.parametrize("edit", [_drop_model_b, _add_tag_field,
                                  _empty_model_a],
                         ids=["no_model_b", "unknown_tag_field",
                              "empty_model_a"])
def test_bad_tags_json_names_stage_and_file(tmp_path, scene_dir, capsys, edit):
    # tags.json is checked before `run` writes any output, and `ensemble`
    # checks it the same way
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "preds" / "tags.json"
    tags = json.loads(path.read_text())
    edit(tags)
    path.write_text(json.dumps(tags))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 2
    assert f"stage 'postprocess' failed on {path}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["ensemble", "--preds", str(inp / "preds"),
                 "--out-occ", str(tmp_path / "occ.msoc"),
                 "--out-sem", str(tmp_path / "sem.msoc")]) == 2
    assert f"stage 'postprocess' failed on {path}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["inp"]


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


@pytest.mark.parametrize("fault, words", [
    ("occupancy_2", "occupancy must be 0 or 1"),
    ("label_where_free", "semantics must be FREE exactly where occupancy is 0"),
], ids=["occupancy_2", "label_where_free"])
def test_gt_downsample_bad_ground_truth_names_occ_file(tmp_path, scene_dir,
                                                       capsys, fault, words):
    # the ground-truth rule fails as in `run`: stage gt_pyramid on --occ
    occ = read_tensor(scene_dir / "gt_occ.msoc")
    sem = read_tensor(scene_dir / "gt_sem.msoc")
    occ[tuple(np.argwhere(sem != FREE)[0])] = 2 if fault == "occupancy_2" else 0
    path = tmp_path / "occ.msoc"
    write_tensor(path, occ)
    capsys.readouterr()
    assert main(["gt-downsample", "--occ", str(path),
                 "--sem", str(scene_dir / "gt_sem.msoc"),
                 "--mask", str(scene_dir / "mask.msoc"),
                 "--out", str(tmp_path / "pyr")]) == 2
    assert (f"stage 'gt_pyramid' failed on {path}: {words}"
            in capsys.readouterr().err)
    assert not (tmp_path / "pyr").exists()


@pytest.mark.parametrize("side", ["gt", "mask"])
def test_eval_file_of_another_shape_names_its_file(tmp_path, capsys, side):
    for name in ("pred", "gt", "mask"):
        shape = (4, 4, 3) if name == side else (4, 4, 2)
        write_tensor(tmp_path / f"{name}.msoc", np.ones(shape, np.uint8))
    capsys.readouterr()
    assert main(["eval", "--pred", str(tmp_path / "pred.msoc"),
                 "--gt", str(tmp_path / "gt.msoc"),
                 "--mask", str(tmp_path / "mask.msoc"),
                 "--out", str(tmp_path / "report.json")]) == 2
    assert (f"stage 'eval' failed on {tmp_path / f'{side}.msoc'}: shape "
            f"(4, 4, 3), expected (4, 4, 2)") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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
    assert (f"stage 'lift_stack' failed on {path}: depth logits"
            in capsys.readouterr().err)
    assert not (tmp_path / "lifted.msoc").exists()


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


def test_nan_features_lifted_to_no_voxel_fail_lift_as_run(tmp_path, scene_dir,
                                                          capsys):
    # this pixel's frustum misses the grid, so the lifted grid stays finite:
    # only the features check sees the NaN, in `lift` as in `run`
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "features" / "frame01_stride8.msoc"
    feats = read_tensor(path)
    feats[0, 0, 0, 0] = np.nan
    write_tensor(path, feats)
    capsys.readouterr()
    assert main(["lift", "--features", str(path), "--depth-logits",
                 str(inp / "depth_logits" / "frame01_stride8.msoc"),
                 "--rig", str(inp / "rig.json"), "--grid", str(inp / "grid.json"),
                 "--stride", "8", "--out", str(tmp_path / "lifted.msoc")]) == 3
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert f"stage 'lift_stack' failed on {path}: features" in line
    assert not (tmp_path / "lifted.msoc").exists()


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
    assert names == ["depth_min", "depth_max", "ensemble_weights",
                     "threshold_table"]
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


def test_option_surface():
    # every knob is an edit here: each subcommand's long flags and the
    # fields of PipelineConfig
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(o for a in p._actions for o in a.option_strings
                          if o.startswith("--") and o != "--help")
             for name, p in sub.choices.items()}
    depth = ["--depth-max", "--depth-min"]
    assert flags == {
        "synth": ["--boxes", "--cameras", "--channels", *depth, "--frames",
                  "--image-height", "--image-width", "--out", "--seed"],
        "cost-volume": ["--current", *depth, "--out",
                        "--pose-current", "--pose-previous", "--previous",
                        "--rig"],
        "lift": ["--depth-logits", *depth, "--features", "--grid", "--out",
                 "--rig", "--stride"],
        "warp": ["--grid", "--input", "--mode", "--out", "--transform"],
        "gt-downsample": ["--mask", "--occ", "--out", "--sem"],
        "loss": ["--depth-logits", *depth, "--gt-depth", "--gt-occ",
                 "--gt-sem", "--mask", "--occ-logits", "--out",
                 "--sem-logits"],
        "tta-enumerate": ["--out"],
        "deaug": ["--img-hflip", "--occ", "--out-occ", "--out-sem", "--sem",
                  "--vox-flip-x", "--vox-flip-y"],
        "ensemble": ["--out-occ", "--out-sem", "--preds", "--weight-a",
                     "--weight-b"],
        "threshold": ["--occ-prob", "--out", "--sem-labels", "--table"],
        "eval": ["--gt", "--include-free", "--mask", "--out", "--pred"],
        "run": ["--input", "--output"],
    }
    assert [f.name for f in dataclasses.fields(pipeline.PipelineConfig)] == [
        "depth_min", "depth_max", "ensemble_weights", "threshold_table"]


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
    ("rig.json", _set("cameras", 1, "intrinsics", "fx", 0.0),
     "focal lengths must be positive"),
    ("rig.json", _set("cameras", 0, "intrinsics", "width", 0),
     "image size must be positive"),
    ("rig.json", _set("cameras", []), "rig needs at least one camera"),
    ("grid.json", _set("ny", 0), "grid dims must be >= 1"),
    ("grid.json", _set("voxel_size", 1, 0.0), "voxel_size must be positive"),
], ids=["last_pose_nan", "first_pose_nan", "camera_translation_inf",
        "cx_nan", "fy_inf", "width_float", "height_bool", "origin_nan",
        "voxel_size_inf", "nx_float", "nz_bool", "fx_zero", "width_zero",
        "no_cameras", "ny_zero", "voxel_size_zero"])
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
    argv = [command, *argv, "--rig", str(scene_dir / "rig.json"),
            "--stride", "0", "--out", str(tmp_path / "out.msoc")]
    capsys.readouterr()
    # cost-volume is always at COST_STRIDE, and lift at one of STRIDES,
    # so either way argparse rejects the flag and no file is read
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert {"cost-volume": "unrecognized arguments: --stride 0",
            "lift": "argument --stride: invalid choice: 0 (choose from 8, 16, "
                    "32)"}[command] in capsys.readouterr().err
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


def _loss_argv(scene_dir, tmp_path, **files):
    """`msocc loss` over scene_dir's scale-0 heads and ground truth, any of
    gt_occ, gt_sem, mask and gt_depth (with the current frame's stride-8
    logits) replaced by the path given for it."""
    gt = {name: files.get(name, scene_dir / f"{name}.msoc")
          for name in ("gt_occ", "gt_sem", "mask")}
    argv = ["loss",
            "--occ-logits", str(scene_dir / "heads" / "occ_logits_scale0.msoc"),
            "--sem-logits", str(scene_dir / "heads" / "sem_logits_scale0.msoc"),
            "--gt-occ", str(gt["gt_occ"]), "--gt-sem", str(gt["gt_sem"]),
            "--mask", str(gt["mask"]), "--out", str(tmp_path / "loss.json")]
    if "gt_depth" in files:
        argv += ["--depth-logits",
                 str(scene_dir / "depth_logits" / "frame03_stride8.msoc"),
                 "--gt-depth", str(files["gt_depth"])]
    return argv


def _label_17_where_occupied(occ, sem):
    sem[tuple(np.argwhere(occ == 1)[0])] = 17
    return "gt_sem", sem, "label 17 is neither a class id"


def _occupancy_2(occ, sem):
    occ[tuple(np.argwhere(occ == 1)[0])] = 2
    return "gt_occ", occ, "occupancy must be 0 or 1"


def _class_where_unoccupied(occ, sem):
    sem[tuple(np.argwhere(occ == 0)[0])] = 4
    return "gt_sem", sem, "FREE exactly where occupancy is 0"


@pytest.mark.parametrize("damage", [_label_17_where_occupied, _occupancy_2,
                                    _class_where_unoccupied],
                         ids=["label_17", "occupancy_2", "class_where_free"])
def test_loss_checks_ground_truth_as_run_does(tmp_path, scene_dir, capsys,
                                              damage):
    # `loss` names the file that `run` names, with `run`'s message
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    name, bad, message = damage(read_tensor(inp / "gt_occ.msoc"),
                                read_tensor(inp / "gt_sem.msoc"))
    write_tensor(inp / f"{name}.msoc", bad)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 2
    run_err = capsys.readouterr().err
    assert main(_loss_argv(inp, tmp_path)) == 2
    err = capsys.readouterr().err
    named = run_err.split("failed on ")[1].split(":")[0]
    assert f"stage 'loss' failed on {named}: " in err and message in err
    assert not (tmp_path / "loss.json").exists()


@pytest.mark.parametrize("command", ["threshold", "warp"])
def test_nan_input_the_run_checks_elsewhere_is_numerical_error(
        tmp_path, scene_dir, run_dir, capsys, command):
    # `run` catches these NaNs in the ensemble and in `lift_frame`
    if command == "threshold":
        vol = np.full((2, 2, 2), 0.99)
        write_tensor(tmp_path / "sem.msoc", np.full((2, 2, 2), 4, np.uint8))
        argv = ["--occ-prob", str(tmp_path / "in.msoc"),
                "--sem-labels", str(tmp_path / "sem.msoc")]
    else:
        vol = read_tensor(run_dir / "voxel" / "frame01_scale0.msoc")
        (tmp_path / "identity.json").write_text(
            json.dumps(RigidTransform.identity().to_dict()))
        argv = ["--input", str(tmp_path / "in.msoc"),
                "--grid", str(scene_dir / "grid.json"),
                "--transform", str(tmp_path / "identity.json")]
    vol.flat[vol.size // 2] = np.nan
    write_tensor(tmp_path / "in.msoc", vol)
    capsys.readouterr()
    assert main([command, *argv, "--out", str(tmp_path / "out.msoc")]) == 3
    assert (f"stage '{command}' failed on {tmp_path / 'in.msoc'}: "
            in capsys.readouterr().err)
    assert not (tmp_path / "out.msoc").exists()


@pytest.mark.parametrize("pixels", ["one", "all"])
def test_nan_ground_truth_depth_is_numerical_error(tmp_path, scene_dir,
                                                   capsys, pixels):
    # inf is "no hit"; a NaN is no depth at all
    inp = tmp_path / "inp"
    shutil.copytree(scene_dir, inp)
    path = inp / "gt_depth.msoc"
    depth = read_tensor(path)
    if pixels == "one":
        depth[0, 0, 0] = np.nan
    else:
        depth[:] = np.nan
    write_tensor(path, depth)
    capsys.readouterr()
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "out")]) == 3
    assert f"stage 'loss' failed on {path}: depth: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "loss_report.json").exists()

    # `loss` at stride 8 samples gt_depth[:, 4::8, 4::8]
    sub = read_tensor(scene_dir / "gt_depth.msoc")[:, 4::8, 4::8]
    sub[0, 0, 0] = np.nan
    write_tensor(tmp_path / "sub.msoc", sub)
    assert main(_loss_argv(scene_dir, tmp_path,
                           gt_depth=tmp_path / "sub.msoc")) == 3
    assert (f"stage 'loss' failed on {tmp_path / 'sub.msoc'}: depth: 1 NaN"
            in capsys.readouterr().err)
    assert not (tmp_path / "loss.json").exists()


@pytest.fixture(scope="module")
def subcommand_inputs(scene_dir, run_dir, tmp_path_factory):
    """{command: (its tensor flags' files, its other flags)} of a valid
    call of each subcommand that reads tensor files, on the run's own
    files; the output flags are left to the caller."""
    tmp = tmp_path_factory.mktemp("flags")
    poses = json.loads((scene_dir / "poses.json").read_text())
    for t in (0, 1):
        (tmp / f"pose{t}.json").write_text(json.dumps(poses[t]))
    (tmp / "identity.json").write_text(
        json.dumps(RigidTransform.identity().to_dict()))
    # the depth at the stride-8 pixel centers, and class-id labels
    write_tensor(tmp / "gt_depth.msoc",
                 read_tensor(scene_dir / "gt_depth.msoc")[:, 4::8, 4::8])
    occ_prob = read_tensor(run_dir / "occ_prob.msoc")
    write_tensor(tmp / "labels.msoc", np.full(occ_prob.shape, 4, np.uint8))
    feats, logits = scene_dir / "features", scene_dir / "depth_logits"
    heads, preds = scene_dir / "heads", scene_dir / "preds"
    rig, grid = str(scene_dir / "rig.json"), str(scene_dir / "grid.json")
    gt = {"occ": scene_dir / "gt_occ.msoc", "sem": scene_dir / "gt_sem.msoc",
          "mask": scene_dir / "mask.msoc"}
    return {
        "cost-volume": ({"--current": feats / "frame01_stride4.msoc",
                         "--previous": feats / "frame00_stride4.msoc"},
                        ["--rig", rig, "--pose-current", str(tmp / "pose1.json"),
                         "--pose-previous", str(tmp / "pose0.json")]),
        "lift": ({"--features": feats / "frame01_stride8.msoc",
                  "--depth-logits": logits / "frame01_stride8.msoc"},
                 ["--rig", rig, "--grid", grid, "--stride", "8"]),
        "warp": ({"--input": run_dir / "voxel" / "frame01_scale0.msoc"},
                 ["--grid", grid, "--transform", str(tmp / "identity.json")]),
        "gt-downsample": ({f"--{k}": v for k, v in gt.items()}, []),
        "loss": ({"--occ-logits": heads / "occ_logits_scale0.msoc",
                  "--sem-logits": heads / "sem_logits_scale0.msoc",
                  "--gt-occ": gt["occ"], "--gt-sem": gt["sem"],
                  "--mask": gt["mask"],
                  "--depth-logits": logits / "frame03_stride8.msoc",
                  "--gt-depth": tmp / "gt_depth.msoc"}, []),
        "deaug": ({"--occ": preds / "model_a_entry3_occ.msoc",
                   "--sem": preds / "model_a_entry3_sem.msoc"},
                  ["--vox-flip-x", "--vox-flip-y"]),
        "threshold": ({"--occ-prob": run_dir / "occ_prob.msoc",
                       "--sem-labels": tmp / "labels.msoc"}, []),
        "eval": ({"--pred": run_dir / "final_labels.msoc", "--gt": gt["sem"],
                  "--mask": gt["mask"]}, []),
        "ensemble": ({"--preds": preds}, []),
    }


def _subcommand_argv(inputs, command, out_dir, replaced=None):
    """argv of `command` over `inputs`, with the tensor flags of the
    {flag: path} `replaced` on those files, and every output in
    `out_dir`."""
    tensors, rest = inputs[command]
    argv = [command, *rest]
    for flag, path in {**tensors, **(replaced or {})}.items():
        argv += [flag, str(path)]
    outs = (["--out-occ", "--out-sem"] if command in ("deaug", "ensemble")
            else ["--out"])
    return argv + [a for o in outs for a in (o, str(out_dir / o[2:]))]


SUBCOMMAND_STAGES = {"cost-volume": "cost_volume", "lift": "lift_stack",
                     "warp": "warp", "gt-downsample": "gt_pyramid",
                     "loss": "loss", "deaug": "deaug",
                     "threshold": "threshold", "eval": "eval",
                     "ensemble": "postprocess"}


@pytest.mark.parametrize("command", SUBCOMMAND_STAGES)
def test_subcommand_inputs_are_valid(tmp_path, subcommand_inputs, command):
    # so a failed call below fails on its damaged file alone, where this
    # call writes its outputs
    assert main(_subcommand_argv(subcommand_inputs, command, tmp_path)) == 0
    assert os.listdir(tmp_path)


@pytest.mark.parametrize("command, flag", [
    ("cost-volume", "--current"), ("cost-volume", "--previous"),
    ("lift", "--features"), ("lift", "--depth-logits"), ("warp", "--input"),
    ("gt-downsample", "--occ"), ("gt-downsample", "--sem"),
    ("gt-downsample", "--mask"), ("loss", "--occ-logits"),
    ("loss", "--sem-logits"), ("loss", "--gt-occ"), ("loss", "--gt-sem"),
    ("loss", "--mask"), ("loss", "--depth-logits"), ("loss", "--gt-depth"),
    ("deaug", "--occ"), ("deaug", "--sem"), ("threshold", "--occ-prob"),
    ("threshold", "--sem-labels"), ("eval", "--pred"), ("eval", "--gt"),
    ("eval", "--mask"),
])
def test_truncated_tensor_flag_names_stage_and_file(
        tmp_path, subcommand_inputs, capsys, command, flag):
    # every tensor flag is read in its subcommand's stage, as `run` reads
    # its files, so the error names the stage and the file at fault
    data = subcommand_inputs[command][0][flag].read_bytes()
    bad = tmp_path / "bad.msoc"
    bad.write_bytes(data[:len(data) // 2])
    argv = _subcommand_argv(subcommand_inputs, command, tmp_path, {flag: bad})
    capsys.readouterr()
    assert main(argv) == 4
    stage = SUBCOMMAND_STAGES[command]
    assert f"stage {stage!r} failed on {bad}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.msoc"]


def _without_depth_term(argv):
    drop = {i + d for i, a in enumerate(argv)
            if a in ("--depth-logits", "--gt-depth") for d in (0, 1)}
    return [a for i, a in enumerate(argv) if i not in drop]


@pytest.mark.parametrize("command, flag, damage, named, message", [
    ("loss", "--depth-logits", lambda a: a[0], "--depth-logits",
     "depth shape mismatch: logits (12, 12, 16), gt (2, 12, 16)"),
    ("loss", "--mask", np.zeros_like, "--occ-logits",
     "empty visibility mask"),
    ("warp", "--input", lambda a: a[:, ::2], "--input",
     "grid spec does not match array shape"),
    ("eval", "--mask", np.zeros_like, "--mask",
     "no class has any support in the matrix"),
], ids=["loss_depth", "loss_no_depth", "warp", "eval"])
def test_stage_work_failure_names_stage_and_file(
        tmp_path, subcommand_inputs, capsys, command, flag, damage, named,
        message):
    # inputs that read and check well but fail the stage's own work fail in
    # its stage, as in `run`: `loss` on the depth logits (on the occupancy
    # logits without a depth term), `warp` on its input, `eval` on the mask
    bad = tmp_path / "bad.msoc"
    write_tensor(bad, damage(read_tensor(subcommand_inputs[command][0][flag])))
    argv = _subcommand_argv(subcommand_inputs, command, tmp_path, {flag: bad})
    if named == "--occ-logits":
        argv = _without_depth_term(argv)
    path = argv[argv.index(named) + 1]
    capsys.readouterr()
    assert main(argv) == 2
    assert (f"stage {SUBCOMMAND_STAGES[command]!r} failed on {path}: {message}"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["bad.msoc"]


@pytest.mark.parametrize("command", SUBCOMMAND_STAGES)
def test_every_subcommand_write_names_its_stage(tmp_path, subcommand_inputs,
                                                capsys, command):
    # a directory on each output path, or a file on each output directory,
    # fails that write with exit 4 in the subcommand's stage, as in `run`
    made = tmp_path / "made"
    made.mkdir()
    assert main(_subcommand_argv(subcommand_inputs, command, made)) == 0
    written = sorted(p.relative_to(made).as_posix() for p in made.rglob("*"))
    assert written
    for i, rel in enumerate(written):
        out = tmp_path / f"out{i}"
        if (made / rel).is_dir():
            (out / rel).parent.mkdir(parents=True)
            (out / rel).write_bytes(b"")
        else:
            (out / rel).mkdir(parents=True)
        capsys.readouterr()
        assert main(_subcommand_argv(subcommand_inputs, command, out)) == 4, rel
        err = capsys.readouterr().err
        stage = SUBCOMMAND_STAGES[command]
        assert err.startswith(f"error: stage {stage!r} failed on "), err
        assert str(out / rel) in err, err


def _one_camera(arr):
    return arr[:1]


def _stride_doubled(arr):
    return arr[..., ::2, ::2]


@pytest.mark.parametrize("command, flag, damage, want", [
    ("cost-volume", "--current", _one_camera, (2, None, 24, 32)),
    ("cost-volume", "--current", _stride_doubled, (2, None, 24, 32)),
    ("cost-volume", "--previous", _one_camera, (2, 8, 24, 32)),
    ("cost-volume", "--previous", _stride_doubled, (2, 8, 24, 32)),
    ("cost-volume", "--previous", _one_channel_fewer, (2, 8, 24, 32)),
    ("lift", "--features", _one_camera, (2, None, 12, 16)),
    ("lift", "--features", _stride_doubled, (2, None, 12, 16)),
    ("lift", "--depth-logits", _stride_doubled, (2, 12, 12, 16)),
    ("lift", "--depth-logits", _one_channel_fewer, (2, 12, 12, 16)),
], ids=["current_cameras", "current_lattice", "previous_cameras",
        "previous_lattice", "previous_channels", "features_cameras",
        "features_lattice", "logits_lattice", "logits_bins"])
def test_frame_fault_names_its_own_file_before_any_read(
        tmp_path, subcommand_inputs, capsys, monkeypatch, command, flag,
        damage, want):
    # `--current` and `--features` have the rig's (N, None, H // s, W // s)
    # frame shape at their stride, `--depth-logits` its D bins, and
    # `--previous` the shape of `--current`, as `run` checks later frames;
    # every header is checked before any payload is read. The 2-camera
    # 128x96 scene has 8 channels and 12 depth bins; `lift` is at stride 8
    bad = tmp_path / "bad.msoc"
    arr = damage(read_tensor(subcommand_inputs[command][0][flag]))
    write_tensor(bad, arr)
    argv = _subcommand_argv(subcommand_inputs, command, tmp_path, {flag: bad})
    read = []

    def recorded(path, *rest):
        read.append(path)
        return read_tensor(path, *rest)

    monkeypatch.setattr(pipeline, "read_tensor", recorded)
    capsys.readouterr()
    assert main(argv) == 2
    assert (f"stage {SUBCOMMAND_STAGES[command]!r} failed on {bad}: shape "
            f"{arr.shape}, expected {want}") in capsys.readouterr().err
    assert read == []
    assert os.listdir(tmp_path) == ["bad.msoc"]


def test_cli_imports_no_unnamed_read_or_check():
    # a subcommand reads and checks each tensor by pipeline.read_in, which
    # names the stage and the file of a failure
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {a.name.split(".")[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert not imported & {"read_tensor", "check_finite", "check_gt",
                           "build_pyramid"}


def test_subcommands_make_their_config_first():
    # a subcommand with config flags makes its PipelineConfig, whose checks
    # reject a bad flag, in its first statement, before any file is read,
    # and hands the flags on only through it
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    configured = sorted(
        p.get_default("func").__name__ for p in sub.choices.values()
        if {"--depth-min", "--weight-a"} & set(p._option_string_actions))
    assert configured == ["cmd_cost_volume", "cmd_ensemble", "cmd_lift",
                          "cmd_loss", "cmd_synth"]
    bodies = {node.name: node.body
              for node in ast.parse(Path(cli.__file__).read_text()).body
              if isinstance(node, ast.FunctionDef)}
    for name in configured:
        first, *rest = bodies[name]
        assert isinstance(first, ast.Assign), name
        assert isinstance(first.value, ast.Call), name
        assert first.value.func.id in ("_depth_config", "PipelineConfig"), name
        assert not [n.attr for stmt in rest for n in ast.walk(stmt)
                    if isinstance(n, ast.Attribute) and n.attr in (
                        "depth_min", "depth_max", "weight_a", "weight_b")
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "args"], name
