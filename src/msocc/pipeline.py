"""Pipeline driver: wires cost volumes, lifting, temporal stacking, the loss
stack, and the post-process / evaluation route over a directory of tensors.

Each stage is one function that `run_pipeline` and the CLI subcommands
both call; it writes no file. Each tensor input is an `_InputFile`, its
header checked when made, before `run_pipeline`'s first write, and its
payload read in the stage that a failure names with its file.

Input directory layout (as emitted by `msocc synth`):

    rig.json, grid.json, poses.json, config.json
    gt_occ.msoc, gt_sem.msoc, mask.msoc          uint8 / uint8 / uint8
    gt_depth.msoc                                 f64 (N, H, W), inf = no hit
    features/frame{t:02d}_stride{s}.msoc          f32 (N, C, H // s, W // s)
    depth_logits/frame{t:02d}_stride{s}.msoc      f32 (N, D, H // s, W // s)
    heads/occ_logits_scale{i}.msoc                f64 (nx, ny, nz)
    heads/sem_logits_scale{i}.msoc                f64 (K, nx, ny, nz)
    preds/tags.json                               TTA tags per model
    preds/model_{a,b}_entry{j}_{occ,sem}.msoc     augmented (nx, ny, nz), (K, ...)

N is the rig's camera count, H x W their shared image size, K =
len(CLASS_NAMES) and s each of COST_STRIDE and STRIDES; scale i of the
heads and the pyramid goes with STRIDES[i]. The D depth bins are 1 m wide,
from config.json's depth_min to its depth_max. C is one channel count per
stride, shared by every frame `run_pipeline` reads at it. Frames are
oldest to newest; the last is the current one. `run_pipeline` writes
cost_volumes/frame{t:02d}_stride{s}.msoc for t >= 1: frame t swept
against frame t - 1, one f32 (N, D, H // s, W // s) stack of every
camera, so at each of STRIDES it has the shape of that frame's depth
logits. The 3D fusion network between stacking and the heads is out of
scope and replaced by identity.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import losses, metrics, postprocess, temporal
from .checks import NumericalError, check_finite
from .geometry import CameraRig, FrustumSpec, VoxelGridSpec, relative_ego_motion, RigidTransform
from .gt_multiscale import CLASS_NAMES, build_pyramid, check_labels
from .lift_splat import build_pooling_index, lift_and_pool, normalize_depth_logits
from .temporal import COST_STRIDE
from .tensorio import (TensorIOError, atomic_open, read_header, read_tensor,
                       write_tensor)


class PipelineStageError(Exception):
    def __init__(self, stage: str, path: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed on {path}: {cause}")
        self.stage = stage
        self.path = path
        self.cause = cause


STRIDES = (8, 16, 32)  # image strides of the lifted scales, finest first


@dataclass(frozen=True)
class PipelineConfig:
    depth_min: float = 1.0
    depth_max: float = 13.0
    ensemble_weights: tuple = (0.45, 0.55)
    threshold_table: str | None = None  # path; None = built-in defaults

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not _has_type_of(v, f.default):
                raise ValueError(f"config key {f.name!r} has a value of the "
                                 f"wrong type: {v!r}")
            if isinstance(v, list):  # as JSON holds it; a tuple hashes
                object.__setattr__(self, f.name, tuple(v))
        if len(self.ensemble_weights) != 2:
            raise ValueError(f"ensemble_weights needs 2 weights, got "
                             f"{len(self.ensemble_weights)}")
        if not all(0 < w < np.inf for w in self.ensemble_weights):
            raise ValueError(f"ensemble_weights must be positive and finite, got "
                             f"{list(self.ensemble_weights)}")
        frustum(self)  # the depth bins' own checks

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config is not a JSON object: {d!r}")
        names = {f.name for f in fields(cls)}
        for k in d:
            if k not in names:
                raise ValueError(f"unknown config key {k!r}")
        return cls(**d)


def _has_type_of(v, default) -> bool:
    """Whether config value `v` has the type of a field defaulting to
    `default`: a number, a list of those, or a string or null."""
    if isinstance(default, tuple):
        return (isinstance(v, (list, tuple))
                and all(_has_type_of(x, default[0]) for x in v))
    if isinstance(default, float):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    return v is None or isinstance(v, str)


@contextmanager
def _stage(name: str, path: str):
    """Report a failure inside the block as one of stage `name` on `path`."""
    try:
        yield
    except (OSError, ValueError, TensorIOError, NumericalError) as e:
        raise PipelineStageError(name, path, e)


class _InputFile:
    """Tensor file `path`, its header checked against `shape` when made (an
    axis given as None may have any size). Its payload is read on use: all
    of it by .read(check), then `check(array)` raises to reject it; or one
    part de-augmented by `tag`, the x-slab [a:b] of an occupancy or of class
    row k by [k, a:b] (all of row k by [k]). A tag that flips x maps the
    slab to its mirror in the file, so every read is one contiguous run.
    The header check and each read are ones of stage `stage` on the file."""

    def __init__(self, stage, path, shape=None,
                 tag=postprocess.AugmentationTag(False, False, False)):
        self.stage, self.path, self.tag = stage, path, tag
        with _stage(stage, path), open(path, "rb", buffering=0) as fh:
            _, self.shape = read_header(fh, path)
            if shape is not None and not (len(self.shape) == len(shape) and all(
                    e is None or d == e for d, e in zip(self.shape, shape))):
                raise ValueError(f"shape {self.shape}, expected {tuple(shape)}")

    def read(self, check=None):
        with _stage(self.stage, self.path):
            arr = read_tensor(self.path)
            if check is not None:
                check(arr)
        return arr

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if len(self.shape) == 3:  # an occupancy has no class axis
            key = (None, *key)
        row, xs = (*key, slice(None))[:2]
        nx = self.shape[-3]
        a, b, _ = xs.indices(nx)
        if self.tag.vox_flip_x:
            a, b = nx - b, nx - a
        with _stage(self.stage, self.path):
            part = read_tensor(self.path, row, (a, b))
        return postprocess.deaugment(self.tag, part)[0]


def read_in(stage: str, path, shape: tuple | None = None, check=None):
    """The whole tensor file `path`, read by `_InputFile`'s rules."""
    return _InputFile(stage, path, shape).read(check)


def finite(name: str):
    """A `read_in` check: `check_finite` of the array under `name`."""
    return lambda arr: check_finite(name, arr)


def check_depth(depth) -> None:
    """Raise NumericalError on a NaN in a depth map, where inf is no hit."""
    if (nan := int(np.isnan(depth).sum())):
        raise NumericalError(f"depth: {nan} NaN")


def read_pyramid(stage: str, occ_path, sem_path, mask_path,
                 shape: tuple | None = None, levels: int = len(STRIDES)):
    """The `levels`-scale ground-truth pyramid of the occupancy, label and
    mask files, each read in `stage` against `shape` (else the occupancy's)
    and the labels by `check_labels`; `build_pyramid`'s rule fails in
    `stage` on the occupancy file. One level is the rule alone."""
    occ = read_in(stage, occ_path, shape)
    sem = read_in(stage, sem_path, occ.shape, check=check_labels)
    mask = read_in(stage, mask_path, occ.shape).astype(bool)
    with _stage(stage, occ_path):
        return build_pyramid(occ, sem, mask, levels=levels)


def read_input(path, parse):
    """`parse` applied to the text of the JSON input file `path`; any
    failure is reported as one of stage `inputs` on `path`."""
    with _stage("inputs", path), open(path) as fh:
        try:
            return parse(fh.read())
        except (KeyError, TypeError) as e:  # missing or mistyped field
            raise ValueError(f"bad field: {e!r}") from e


def write_json(path, obj) -> None:
    with atomic_open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _grid_level(grid: VoxelGridSpec, level: int) -> VoxelGridSpec:
    f = 2 ** level
    return VoxelGridSpec(grid.nx // f, grid.ny // f, grid.nz // f,
                         origin=grid.origin, voxel_size=grid.voxel_size * f)


def frustum(cfg: PipelineConfig) -> FrustumSpec:
    return FrustumSpec(cfg.depth_min, cfg.depth_max)


def frame_shape(rig: CameraRig, stride: int, depth: int | None = None):
    """The (N, depth, H // stride, W // stride) shape of a frame tensor of
    `rig`'s N cameras of H x W at image stride `stride`; a depth of None, as
    for a feature stack's channels, takes any size in an `_InputFile`."""
    k = rig.cameras[0][0]  # the rig's cameras share one image size
    return (len(rig), depth, k.height // stride, k.width // stride)


def cost_volume(cfg: PipelineConfig, rig: CameraRig, cur: np.ndarray,
                prev: np.ndarray, rel: RigidTransform):
    """Plane-sweep cost volumes of every camera from the (N, C, H, W) feature
    stacks of the current and previous frame, each of the
    `frame_shape(rig, COST_STRIDE)` that the callers' handles check, as the
    float32 (N, D, H, W) stack that is written and pooled to coarser
    strides. Each camera sweeps in float64; its check runs on its float32
    volume, since a finite float64 value can overflow float32."""
    cv = []
    for cam, (k, cam_to_ego) in enumerate(rig.cameras):
        cv.append(temporal.build_cost_volume(
            cur[cam], prev[cam], rel, k.scaled(COST_STRIDE), frustum(cfg),
            cam_to_ego=cam_to_ego).astype(np.float32))
        check_finite(f"cost volume camera {cam}", cv[cam])
    return np.stack(cv)


def pooling_index(cfg: PipelineConfig, stride: int, rig: CameraRig,
                  grid: VoxelGridSpec):
    scaled = CameraRig(tuple((k.scaled(stride), t) for k, t in rig.cameras))
    return build_pooling_index(scaled, frustum(cfg), grid)


def lift_frame(features: _InputFile, logits: _InputFile, idx):
    """Read one frame's (N, C, H, W) features and (N, D, H, W) depth logits,
    each checked finite (the handles check their `frame_shape` at pooling
    index `idx`'s stride), and lift them into the float32 (C, nx, ny, nz)
    grid that is written, and for a past frame warped and stacked. Rows are
    summed in float64, and the check of the float32 grid catches their
    overflow. Stage `lift_stack` names the file read, or for the lift the
    logits file."""
    feats = features.read(finite("features"))
    z = logits.read(finite("depth logits"))
    with _stage("lift_stack", logits.path):
        lifted = lift_and_pool(feats, normalize_depth_logits(z), idx,
                               dtype=np.float32)
        check_finite("lifted grid", lifted)
    return lifted


def write_pyramid(out_dir: str, pyramid) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i in range(len(pyramid.occ)):
        for name in ("occ", "sem", "mask"):
            write_tensor(os.path.join(out_dir, f"{name}_scale{i}.msoc"),
                         getattr(pyramid, name)[i].astype(np.uint8))


def scale_losses(cfg: PipelineConfig, occ_logits, sem_logits, occ, sem, mask,
                 depth_logits=None, gt_depth=None):
    """Occupancy BCE, semantic focal loss (gamma 2) and depth cross-entropy
    of one scale, with inverse class-frequency weights over the K classes of
    CLASS_NAMES. `sem_logits` is the (K, *occ.shape) head, as an array or
    as a `_InputFile` whose [k] reads class row k; the focal loss reads
    it one row at a time and keeps only the masked occupied voxels it
    scores, so no (K, ...) float64 array is built. `depth_logits` is a
    (..., D, h, w) stack of camera maps and `gt_depth` the (..., h, w) depth
    at their pixels; the depth term is the mean over cameras, a camera with
    no in-range depth counting 0, and is 0.0 when no depth is given. A NaN
    or inf term raises NumericalError."""
    w = losses.class_frequency_weights(sem, occ, mask)
    lo, _ = losses.bce_occ_loss(occ_logits, occ, mask, w)
    k = len(CLASS_NAMES)
    if (shape := tuple(sem_logits.shape)) != (k, *occ.shape):
        raise ValueError(f"semantic head shape mismatch: {shape}, expected "
                         f"{(k, *occ.shape)}")
    contrib = np.asarray(mask, dtype=bool) & (occ == 1)
    zc = np.stack([sem_logits[c][contrib] for c in range(k)])
    ls, _ = losses.focal_sem_loss(zc, sem[contrib], occ[contrib],
                                  mask[contrib], w)
    ld = 0.0
    if depth_logits is not None:
        if gt_depth.shape != depth_logits.shape[:-3] + depth_logits.shape[-2:]:
            raise ValueError(f"depth shape mismatch: logits "
                             f"{depth_logits.shape}, gt {gt_depth.shape}")
        z = depth_logits.reshape(-1, *depth_logits.shape[-3:])
        gt = gt_depth.reshape(-1, *gt_depth.shape[-2:])
        f = frustum(cfg)
        valid = f.in_range(gt)
        if not valid.any():
            raise ValueError("no valid depth pixels")
        ld = sum(losses.depth_loss(z[c], gt[c], valid[c], f)[0]
                 for c in range(len(z)) if valid[c].any()) / len(z)
    check_finite("losses", [lo, ls, ld])
    return lo, ls, ld


def load_prediction_sets(preds_dir: str, shape: tuple | None = None):
    """Read and check tags.json, with at least one entry per model, and
    every entry file's header, the occ entries against `shape` when given;
    return each model's entries as (occ, sem) pairs of `_InputFile`s.
    A failure is one of stage `postprocess` on the file at fault."""
    path = os.path.join(preds_dir, "tags.json")
    names = {f.name for f in fields(postprocess.AugmentationTag)}
    with _stage("postprocess", path), open(path) as fh:
        tags = json.load(fh)
        for key in ("model_a", "model_b"):
            if not (isinstance(tags, dict) and isinstance(tags.get(key), list)
                    and tags[key]):
                raise ValueError(f"tags.json has no non-empty {key!r} list")
            for td in tags[key]:
                if not (isinstance(td, dict) and set(td) == names and
                        all(isinstance(v, bool) for v in td.values())):
                    raise ValueError(f"{key} tag {td!r} does not have exactly "
                                     f"the boolean fields {sorted(names)}")

    def entry(model, j, td):
        tag = postprocess.AugmentationTag(**td)
        path = os.path.join(preds_dir, f"model_{model}_entry{j}_{{}}.msoc")
        occ = _InputFile("postprocess", path.format("occ"), shape, tag)
        return occ, _InputFile("postprocess", path.format("sem"),
                               (len(CLASS_NAMES), *occ.shape), tag)

    return tuple([entry(m, j, td) for j, td in enumerate(tags[f"model_{m}"])]
                 for m in "ab")


def evaluate(pred, gt, mask, include_free: bool = False) -> dict:
    matrix = metrics.accumulate(pred, gt, mask)
    per_class, mean = metrics.miou(matrix, include_free=include_free)
    return {"per_class_iou": {str(k): v for k, v in per_class.items()},
            "miou": mean, "voxels_evaluated": int(matrix.sum())}


def run_pipeline(input_dir: str, output_dir: str) -> dict:
    """Execute every stage over an input directory, configured by its
    config.json (the defaults when absent); returns the combined report
    (also written as JSON into output_dir)."""
    inp = input_dir
    out = output_dir

    if os.path.exists(os.path.join(inp, "config.json")):
        cfg = read_input(os.path.join(inp, "config.json"), lambda text:
                         PipelineConfig.from_dict(json.loads(text)))
    else:
        cfg = PipelineConfig()

    rig = read_input(os.path.join(inp, "rig.json"), CameraRig.from_json)
    grid = read_input(os.path.join(inp, "grid.json"), VoxelGridSpec.from_json)
    poses = read_input(os.path.join(inp, "poses.json"), lambda text: [
        RigidTransform.from_dict(d) for d in json.loads(text)])
    num_frames = len(poses)
    if num_frames < 2:
        raise PipelineStageError(
            "inputs", os.path.join(inp, "poses.json"),
            ValueError(f"need at least 2 frames, found {num_frames}"))
    table = cfg.threshold_table and os.path.join(inp, cfg.threshold_table)
    with _stage("inputs", table):
        thresholds = postprocess.load_threshold_table(table)
    k0 = rig.cameras[0][0]  # the rig's cameras share one image size
    with _stage("inputs", os.path.join(inp, "rig.json")):
        lattice = k0.scaled(COST_STRIDE)
        for s in STRIDES:
            factor = s // COST_STRIDE
            if lattice.height % factor or lattice.width % factor:
                raise ValueError(
                    f"stride {s} pools the {lattice.height}x{lattice.width} "
                    f"cost-volume lattice by {factor}, which does not divide it")

    # ---- stage: multi-scale ground truth (first: it needs no other stage,
    # so a bad label fails before any output is written) ----
    gt_occ = os.path.join(inp, "gt_occ.msoc")
    pyramid = read_pyramid("gt_pyramid", gt_occ,
                           os.path.join(inp, "gt_sem.msoc"),
                           os.path.join(inp, "mask.msoc"), grid.shape)

    # later stages' inputs get their handles, which check each header,
    # before the first write. The first frame in `got` has
    # `frame_shape(rig, s, depth)`, and each later one its shape
    def frame(got, stage, kind, t, s, depth=None):
        got.append(_InputFile(stage, os.path.join(
            inp, kind, f"frame{t:02d}_stride{s}.msoc"), got[0].shape if got
            else frame_shape(rig, s, depth)))

    cv_feats = []
    for t in range(num_frames):
        frame(cv_feats, "cost_volume", "features", t, COST_STRIDE)
    lifts = [([], []) for _ in STRIDES]  # each lifted frame's features, logits
    for (feats, logits), s in zip(lifts, STRIDES):
        for t in range(1, num_frames):
            frame(feats, "lift_stack", "features", t, s)
            frame(logits, "lift_stack", "depth_logits", t, s,
                  frustum(cfg).num_bins)
    gt_depth = _InputFile("loss", os.path.join(inp, "gt_depth.msoc"),
                          (len(rig), k0.height, k0.width))
    heads = []  # per scale, the occupancy and semantic head
    for i in range(len(STRIDES)):
        level = _grid_level(grid, i).shape
        head = os.path.join(inp, "heads", f"{{}}_logits_scale{i}.msoc")
        heads.append((_InputFile("loss", head.format("occ"), level),
                      _InputFile("loss", head.format("sem"),
                                 (len(CLASS_NAMES), *level))))
    preds = os.path.join(inp, "preds")
    prediction_sets = load_prediction_sets(preds, grid.shape)
    with _stage("gt_pyramid", gt_occ):
        write_pyramid(os.path.join(out, "gt_pyramid"), pyramid)

    # ---- stage: cost volumes at COST_STRIDE between adjacent frames ----
    cv_dir = os.path.join(out, "cost_volumes")
    feats_prev = cv_feats[0].read()
    for t in range(1, num_frames):
        feats_cur = cv_feats[t].read()
        with _stage("cost_volume", cv_feats[t].path):
            cv = cost_volume(cfg, rig, feats_cur, feats_prev,
                             relative_ego_motion(poses[t - 1], poses[t]))
            os.makedirs(cv_dir, exist_ok=True)
            name = os.path.join(cv_dir, f"frame{t:02d}_stride{{}}.msoc")
            write_tensor(name.format(COST_STRIDE), cv)
            for s in STRIDES:
                write_tensor(name.format(s), temporal.rescale_cost_volume(cv, s))
            del cv  # so the next frame's stack is built without it
        feats_prev = feats_cur  # each frame is read once

    # ---- stage: lift + temporal stack per scale (earliest frame dropped) ----
    vox_dir = os.path.join(out, "voxel")
    for level, (stride, (feats, logits)) in enumerate(zip(STRIDES, lifts)):
        g = _grid_level(grid, level)
        with _stage("lift_stack", os.path.join(inp, "rig.json")):
            idx = pooling_index(cfg, stride, rig, g)
        aligned = []
        for t, (features, depths) in enumerate(zip(feats, logits), start=1):
            block = lift_frame(features, depths, idx)
            with _stage("lift_stack", depths.path):
                os.makedirs(vox_dir, exist_ok=True)
                write_tensor(os.path.join(
                    vox_dir, f"frame{t:02d}_scale{level}.msoc"), block)
                # past frames warp their written grid, as `msocc warp` does
                if t < num_frames - 1:
                    block = temporal.warp_voxel_grid(
                        block, relative_ego_motion(poses[t], poses[-1]), g)
                aligned.append(block)
        del block  # so stack_temporal frees each grid once it is copied
        # identity stands in for the out-of-scope 3D fusion network
        path = os.path.join(vox_dir, f"stack_scale{level}.msoc")
        with _stage("lift_stack", path):
            write_tensor(path, temporal.stack_temporal(aligned))

    # ---- stage: loss report against the pyramid ----
    with _stage("loss", os.path.join(inp, "heads")):
        depth = gt_depth.read(check_depth)
        terms = []
        for i, (stride, (occ_head, sem_head)) in enumerate(zip(STRIDES, heads)):
            # depth supervision at this scale's stride, pixel-center subsampled
            c = stride // 2
            terms.append(scale_losses(
                cfg, occ_head.read(), sem_head,
                pyramid.occ[i], pyramid.sem[i], pyramid.mask[i],
                lifts[i][1][-1].read(), depth[:, c::stride, c::stride]))
        report = losses.total_loss(*zip(*terms))
        write_json(os.path.join(out, "loss_report.json"), report)

    # ---- stage: de-augment, ensemble, threshold, evaluate ----
    with _stage("postprocess", preds):
        occ_prob, sem_label = postprocess.ensemble(*prediction_sets,
                                                   cfg.ensemble_weights)
        occ_prob = occ_prob.astype(np.float32)  # thresholded as written
        final = postprocess.apply_thresholds(occ_prob, sem_label, thresholds)
        write_tensor(os.path.join(out, "occ_prob.msoc"), occ_prob)
        write_tensor(os.path.join(out, "final_labels.msoc"), final)
        eval_report = evaluate(final, pyramid.sem[0], pyramid.mask[0])
        write_json(os.path.join(out, "eval_report.json"), eval_report)

    path = os.path.join(out, "metadata.json")
    with _stage("metadata", path):
        write_json(path, {"config": asdict(cfg), "num_frames": num_frames})
    return {"loss": report, "eval": eval_report}


def emit_inputs(out_dir: str, scene, config: PipelineConfig | None = None,
                channels: int = 8, seed: int = 0) -> None:
    """Write a complete pipeline input directory for a synthetic scene.

    Features are seeded pseudo-random; depth logits favor the rendered
    ground-truth depth; head logits and prediction sets are oracles built
    from the ground truth, so a full `run` evaluates to mIoU 1.0.
    """
    from . import fixtures

    cfg = config or PipelineConfig()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)

    with atomic_open(os.path.join(out_dir, "rig.json"), "w") as fh:
        fh.write(scene.rig.to_json())
    with atomic_open(os.path.join(out_dir, "grid.json"), "w") as fh:
        fh.write(scene.grid.to_json())
    write_json(os.path.join(out_dir, "poses.json"),
               [p.to_dict() for p in scene.poses])
    write_json(os.path.join(out_dir, "config.json"), asdict(cfg))

    for name in ("gt_occ", "gt_sem", "mask"):
        write_tensor(os.path.join(out_dir, f"{name}.msoc"),
                     getattr(scene, name).astype(np.uint8))
    write_tensor(os.path.join(out_dir, "gt_depth.msoc"),
                 scene.gt_depth.astype(np.float64))

    num_frames = len(scene.poses)
    f = frustum(cfg)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "depth_logits"), exist_ok=True)
    for t in range(num_frames):
        for s in (COST_STRIDE, *STRIDES):
            feats = rng.standard_normal(frame_shape(scene.rig, s, channels))
            write_tensor(os.path.join(out_dir, "features",
                                      f"frame{t:02d}_stride{s}.msoc"),
                         feats.astype(np.float32))
            if s == COST_STRIDE:
                continue
            sub = scene.gt_depth[:, s // 2::s, s // 2::s]
            logits = rng.standard_normal(
                frame_shape(scene.rig, s, f.num_bins)) * 0.1
            valid = f.in_range(sub)
            bins = f.bin_of(np.where(valid, sub, f.depth_min))
            cam_i, v_i, u_i = np.nonzero(valid)
            logits[cam_i, bins[valid], v_i, u_i] += 5.0
            write_tensor(os.path.join(out_dir, "depth_logits",
                                      f"frame{t:02d}_stride{s}.msoc"),
                         logits.astype(np.float32))

    os.makedirs(os.path.join(out_dir, "heads"), exist_ok=True)
    pyramid = build_pyramid(scene.gt_occ, scene.gt_sem, scene.mask,
                            levels=len(STRIDES))
    for i in range(len(STRIDES)):
        logits = fixtures.oracle_logits(pyramid.occ[i], pyramid.sem[i])
        for name, z in zip(("occ", "sem"), logits):
            write_tensor(os.path.join(out_dir, "heads",
                                      f"{name}_logits_scale{i}.msoc"), z)

    os.makedirs(os.path.join(out_dir, "preds"), exist_ok=True)
    occ_prob, sem_prob = fixtures.oracle_predictions(scene)
    tags = postprocess.enumerate_tta()
    tag_dicts = [asdict(t) for t in tags]
    write_json(os.path.join(out_dir, "preds", "tags.json"),
               {"model_a": tag_dicts, "model_b": tag_dicts})
    for j, tag in enumerate(tags):
        # the flips are involutions, so deaugment also augments
        for name, vol in zip(("occ", "sem"),
                             postprocess.deaugment(tag, occ_prob, sem_prob)):
            vol = np.ascontiguousarray(vol)  # one copy for both models
            for model in "ab":
                write_tensor(os.path.join(
                    out_dir, "preds", f"model_{model}_entry{j}_{name}.msoc"), vol)
