import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msocc import fixtures, pipeline, postprocess
from msocc.cli import main
from msocc.geometry import RigidTransform
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
        tuple(sc.poses[:1] * 3), sc.gt_depth, sc.seed)
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
    feats = read_tensor(scene_dir / "features" / "frame01_stride4.msoc")
    write_tensor(tmp_path / "cur.msoc", feats[0])
    write_tensor(tmp_path / "prev.msoc", feats[0])
    poses = json.loads((scene_dir / "poses.json").read_text())
    (tmp_path / "p0.json").write_text(json.dumps(poses[0]))
    rc = main(["cost-volume", "--current", str(tmp_path / "cur.msoc"),
               "--previous", str(tmp_path / "prev.msoc"),
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
    nanfeat = feats[0].copy()
    nanfeat[0, 0, 0] = np.nan
    write_tensor(tmp_path / "cur.msoc", nanfeat)
    write_tensor(tmp_path / "prev.msoc", feats[0])
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


def test_eval_label_outside_classes_is_validation_error(tmp_path, capsys):
    labels = np.zeros((4, 4, 2), np.uint8)
    write_tensor(tmp_path / "gt.msoc", labels)
    write_tensor(tmp_path / "mask.msoc", np.ones_like(labels))
    labels[1, 2, 0] = 20
    write_tensor(tmp_path / "pred.msoc", labels)
    capsys.readouterr()
    assert main(["eval", "--pred", str(tmp_path / "pred.msoc"),
                 "--gt", str(tmp_path / "gt.msoc"),
                 "--mask", str(tmp_path / "mask.msoc"),
                 "--out", str(tmp_path / "report.json")]) == 2
    assert "label 20" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_fuse_holds_one_prediction_entry(scene_dir):
    preds = str(scene_dir / "preds")
    entry = sum(read_tensor(os.path.join(preds, f"model_a_entry0_{k}.msoc"))
                .nbytes for k in ("occ", "sem"))
    tracemalloc.start()
    try:
        pipeline.fuse(*pipeline.load_prediction_sets(preds), (0.45, 0.55))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * entry


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
    assert f"stage 'lift_stack' on {path}: depth logits" in err
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
    assert f"stage 'lift_stack' on {path}: features" in capsys.readouterr().err


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
