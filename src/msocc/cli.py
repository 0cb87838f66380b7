"""Command-line driver. One subcommand per operation group; long-form flags
only. Exit codes: 0 success, 2 input validation, 3 numerical failure (NaN or
inf), 4 IO failure. Every subcommand is a pure function of its file inputs
and flags, and numeric flags are echoed into the output metadata."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import fixtures, pipeline, postprocess, temporal
from .geometry import CameraRig, RigidTransform, VoxelGridSpec, relative_ego_motion
from .gt_multiscale import CLASS_NAMES, check_labels
from .pipeline import (NumericalError, PipelineConfig, PipelineStageError,
                       frame_shape, read_in, read_input)
from .tensorio import TensorIOError, atomic_open, write_tensor

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULTS = PipelineConfig()


def _add_depth_flags(p):
    p.add_argument("--depth-min", type=float, default=DEFAULTS.depth_min)
    p.add_argument("--depth-max", type=float, default=DEFAULTS.depth_max)


def _depth_config(args) -> PipelineConfig:
    return PipelineConfig(depth_min=args.depth_min, depth_max=args.depth_max)


def _parse_transform(text) -> RigidTransform:
    return RigidTransform.from_dict(json.loads(text))


def _write_meta(path, args):
    # --out is the file beside the metadata or the directory holding it; it
    # is left out so the same command into two places writes the same bytes
    pipeline.write_json(path, {k: v for k, v in vars(args).items()
                               if k not in ("func", "out")})


def cmd_synth(args):
    cfg = _depth_config(args)
    scene = fixtures.make_scene(
        num_cameras=args.cameras, num_frames=args.frames,
        num_boxes=args.boxes, seed=args.seed,
        image_width=args.image_width, image_height=args.image_height)
    pipeline.emit_inputs(args.out, scene, cfg,
                         channels=args.channels, seed=args.seed)
    _write_meta(os.path.join(args.out, "synth_metadata.json"), args)
    return EXIT_OK


def cmd_cost_volume(args):
    cfg = _depth_config(args)
    rig = read_input(args.rig, CameraRig.from_json)
    rel = relative_ego_motion(read_input(args.pose_previous, _parse_transform),
                              read_input(args.pose_current, _parse_transform))
    # the previous frame has the current one's shape, as in `run`
    cur = pipeline._InputFile("cost_volume", args.current,
                              frame_shape(rig, temporal.COST_STRIDE))
    prev = pipeline._InputFile("cost_volume", args.previous, cur.shape)
    with pipeline._stage("cost_volume", args.current):
        cv = pipeline.cost_volume(cfg, rig, cur.read(), prev.read(), rel)
        write_tensor(args.out, cv)
        _write_meta(args.out + ".meta.json", args)
    return EXIT_OK


def cmd_lift(args):
    cfg = _depth_config(args)
    rig = read_input(args.rig, CameraRig.from_json)
    grid = read_input(args.grid, VoxelGridSpec.from_json)
    feats = pipeline._InputFile("lift_stack", args.features,
                                frame_shape(rig, args.stride))
    logits = pipeline._InputFile("lift_stack", args.depth_logits, frame_shape(
        rig, args.stride, pipeline.frustum(cfg).num_bins))
    with pipeline._stage("lift_stack", args.rig):
        idx = pipeline.pooling_index(cfg, args.stride, rig, grid)
    with pipeline._stage("lift_stack", args.out):
        write_tensor(args.out, pipeline.lift_frame(feats, logits, idx))
        _write_meta(args.out + ".meta.json", args)
    return EXIT_OK


def cmd_warp(args):
    grid_arr = read_in("warp", args.input,
                       check=pipeline.finite("voxel grid"))
    grid = read_input(args.grid, VoxelGridSpec.from_json)
    motion = read_input(args.transform, _parse_transform)
    with pipeline._stage("warp", args.input):
        out = temporal.warp_voxel_grid(grid_arr, motion, grid, mode=args.mode)
        write_tensor(args.out, out)
        _write_meta(args.out + ".meta.json", args)
    return EXIT_OK


def cmd_gt_downsample(args):
    pyr = pipeline.read_pyramid("gt_pyramid", args.occ, args.sem, args.mask)
    with pipeline._stage("gt_pyramid", args.out):
        pipeline.write_pyramid(args.out, pyr)
        _write_meta(os.path.join(args.out, "metadata.json"), args)
    return EXIT_OK


def cmd_loss(args):
    cfg = _depth_config(args)
    if bool(args.depth_logits) != bool(args.gt_depth):
        raise ValueError("the depth term needs --"
                         + ("gt-depth" if args.depth_logits else "depth-logits"))
    depth = ((read_in("loss", args.depth_logits),
              read_in("loss", args.gt_depth, check=pipeline.check_depth))
             if args.depth_logits else ())
    # the ground truth is checked by `run`'s rule, each file under its path
    gt = pipeline.read_pyramid("loss", args.gt_occ, args.gt_sem, args.mask,
                               levels=1)
    occ = gt.occ[0]
    # the semantic head is read one class row at a time, as in `run`
    logits = (read_in("loss", args.occ_logits, occ.shape),
              pipeline._InputFile("loss", args.sem_logits,
                                  (len(CLASS_NAMES), *occ.shape)))
    with pipeline._stage("loss", args.depth_logits or args.occ_logits):
        lo, ls, ld = pipeline.scale_losses(cfg, *logits, occ,
                                           gt.sem[0], gt.mask[0], *depth)
        report = {"occ": lo, "sem": ls, "depth": ld, "total": lo + ls + ld}
        pipeline.write_json(args.out, report)
        _write_meta(args.out + ".meta.json", args)
    return EXIT_OK


def cmd_tta_enumerate(args):
    text = json.dumps([asdict(t) for t in postprocess.enumerate_tta()],
                      indent=2)
    if args.out:
        with atomic_open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return EXIT_OK


def cmd_deaug(args):
    tag = postprocess.AugmentationTag(args.img_hflip, args.vox_flip_x,
                                      args.vox_flip_y)
    occ = read_in("deaug", args.occ)
    sem = read_in("deaug", args.sem, (len(CLASS_NAMES), *occ.shape))
    for path, arr in zip((args.out_occ, args.out_sem),
                         postprocess.deaugment(tag, occ, sem)):
        with pipeline._stage("deaug", path):
            write_tensor(path, arr)
    return EXIT_OK


def cmd_ensemble(args):
    cfg = PipelineConfig(ensemble_weights=(args.weight_a, args.weight_b))
    with pipeline._stage("postprocess", args.preds):  # as in `run`
        occ_prob, sem_label = postprocess.ensemble(
            *pipeline.load_prediction_sets(args.preds), cfg.ensemble_weights)
        write_tensor(args.out_occ, occ_prob.astype(np.float32))
        write_tensor(args.out_sem, sem_label)
        _write_meta(args.out_occ + ".meta.json", args)
    return EXIT_OK


def cmd_threshold(args):
    occ_prob = read_in("threshold", args.occ_prob,
                       check=pipeline.finite("occupancy probability"))
    with pipeline._stage("threshold", args.table):
        table = postprocess.load_threshold_table(args.table)
    sem = read_in("threshold", args.sem_labels, occ_prob.shape)
    with pipeline._stage("threshold", args.sem_labels):
        out = postprocess.apply_thresholds(occ_prob, sem, table)
        write_tensor(args.out, out)
    return EXIT_OK


def cmd_eval(args):
    pred = read_in("eval", args.pred, check=check_labels)
    gt = read_in("eval", args.gt, pred.shape, check=check_labels)
    mask = read_in("eval", args.mask, pred.shape).astype(bool)
    with pipeline._stage("eval", args.mask):
        report = pipeline.evaluate(pred, gt, mask, args.include_free)
        pipeline.write_json(args.out, report)
        _write_meta(args.out + ".meta.json", args)
    return EXIT_OK


def cmd_run(args):
    pipeline.run_pipeline(args.input, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="msocc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="emit a synthetic scene input directory")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--frames", type=int, default=9)
    s.add_argument("--boxes", type=int, default=8)
    s.add_argument("--cameras", type=int, default=6)
    s.add_argument("--channels", type=int, default=8)
    s.add_argument("--image-width", type=int, default=128)
    s.add_argument("--image-height", type=int, default=96)
    _add_depth_flags(s)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("cost-volume", help="plane-sweep cost volume at "
                       f"stride {temporal.COST_STRIDE}")
    s.add_argument("--current", required=True, help="(N, C, H, W) features")
    s.add_argument("--previous", required=True, help="(N, C, H, W) features")
    s.add_argument("--rig", required=True)
    s.add_argument("--pose-current", required=True)
    s.add_argument("--pose-previous", required=True)
    s.add_argument("--out", required=True)
    _add_depth_flags(s)
    s.set_defaults(func=cmd_cost_volume)

    s = sub.add_parser("lift", help="lift features into a voxel grid")
    s.add_argument("--features", required=True)
    s.add_argument("--depth-logits", required=True)
    s.add_argument("--rig", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--stride", type=int, choices=pipeline.STRIDES,
                   default=pipeline.STRIDES[0])
    s.add_argument("--out", required=True)
    _add_depth_flags(s)
    s.set_defaults(func=cmd_lift)

    s = sub.add_parser("warp", help="ego-motion warp of a voxel grid")
    s.add_argument("--input", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--transform", required=True)
    s.add_argument("--mode", choices=("nearest", "trilinear"),
                   default="trilinear")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_warp)

    s = sub.add_parser("gt-downsample", help="build the ground-truth pyramid")
    s.add_argument("--occ", required=True)
    s.add_argument("--sem", required=True)
    s.add_argument("--mask", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_gt_downsample)

    s = sub.add_parser("loss", help="loss report for one scale")
    s.add_argument("--occ-logits", required=True)
    s.add_argument("--sem-logits", required=True)
    s.add_argument("--gt-occ", required=True)
    s.add_argument("--gt-sem", required=True)
    s.add_argument("--mask", required=True)
    s.add_argument("--depth-logits", help="(D, h, w) map or (N, D, h, w) "
                                          "camera stack")
    s.add_argument("--gt-depth", help="depth at the logits' pixels, "
                                      "(h, w) or (N, h, w)")
    s.add_argument("--out", required=True)
    _add_depth_flags(s)
    s.set_defaults(func=cmd_loss)

    s = sub.add_parser("tta-enumerate", help="list the 8 TTA tags")
    s.add_argument("--out")
    s.set_defaults(func=cmd_tta_enumerate)

    s = sub.add_parser("deaug", help="undo voxel flips of one entry")
    s.add_argument("--occ", required=True)
    s.add_argument("--sem", required=True)
    s.add_argument("--img-hflip", action="store_true")
    s.add_argument("--vox-flip-x", action="store_true")
    s.add_argument("--vox-flip-y", action="store_true")
    s.add_argument("--out-occ", required=True)
    s.add_argument("--out-sem", required=True)
    s.set_defaults(func=cmd_deaug)

    s = sub.add_parser("ensemble", help="fuse two models' prediction sets")
    s.add_argument("--preds", required=True,
                   help="directory with tags.json and entry tensors")
    s.add_argument("--weight-a", type=float,
                   default=DEFAULTS.ensemble_weights[0])
    s.add_argument("--weight-b", type=float,
                   default=DEFAULTS.ensemble_weights[1])
    s.add_argument("--out-occ", required=True)
    s.add_argument("--out-sem", required=True)
    s.set_defaults(func=cmd_ensemble)

    s = sub.add_parser("threshold", help="class-wise occupancy thresholding")
    s.add_argument("--occ-prob", required=True)
    s.add_argument("--sem-labels", required=True)
    s.add_argument("--table", help="JSON class-name -> threshold; defaults "
                                   "to the shipped table")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_threshold)

    s = sub.add_parser("eval", help="masked per-class IoU / mIoU")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--mask", required=True)
    s.add_argument("--include-free", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("run", help="full pipeline over an input directory")
    s.add_argument("--input", required=True)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_run)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineStageError, NumericalError, TensorIOError, OSError,
            ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        cause = e.cause if isinstance(e, PipelineStageError) else e
        if isinstance(cause, NumericalError):
            return EXIT_NUMERICAL
        if isinstance(cause, (TensorIOError, OSError)):
            return EXIT_IO
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
