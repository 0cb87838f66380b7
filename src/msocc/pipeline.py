"""Pipeline driver: wires cost volumes, lifting, temporal stacking, the loss
stack, and the post-process / evaluation route over a directory of tensors.

Each stage is a function from arrays to arrays; `run_pipeline` and the CLI
subcommands call the same functions and keep file reads and writes around
them.

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

N is the rig's camera count, H x W their shared image size and K =
len(CLASS_NAMES). Frames are oldest to newest; the last is the current one.
The 3D fusion network between stacking and the heads is out of scope and
replaced by identity.
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
from .tensorio import TensorIOError, read_header, read_tensor, write_tensor


class PipelineStageError(Exception):
    def __init__(self, stage: str, path: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed on {path}: {cause}")
        self.stage = stage
        self.path = path
        self.cause = cause


@dataclass
class PipelineConfig:
    strides: tuple = (8, 16, 32)
    depth_min: float = 1.0
    depth_max: float = 13.0
    depth_step: float = 1.0
    ensemble_weights: tuple = (0.45, 0.55)
    threshold_table: str | None = None  # path; None = built-in defaults

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        cfg = cls()
        for k, v in d.items():
            if not hasattr(cfg, k):
                raise ValueError(f"unknown config key {k!r}")
            if not _has_type_of(v, getattr(cfg, k)):
                raise ValueError(f"config key {k!r} has a value of the wrong "
                                 f"type: {v!r}")
            setattr(cfg, k, tuple(v) if isinstance(v, list) else v)
        if len(cfg.ensemble_weights) != 2:
            raise ValueError(f"ensemble_weights needs 2 weights, got "
                             f"{len(cfg.ensemble_weights)}")
        if not all(0 < w < np.inf for w in cfg.ensemble_weights):
            raise ValueError(f"ensemble_weights must be positive and finite, got "
                             f"{list(cfg.ensemble_weights)}")
        if not cfg.strides:
            raise ValueError("strides must name at least one scale")
        for s in cfg.strides:
            if s < 1 or s % COST_STRIDE:
                raise ValueError(f"stride {s} is not a positive multiple of "
                                 f"the cost-volume stride {COST_STRIDE}")
        frustum(cfg)  # the depth bins' own checks
        return cfg


def _has_type_of(v, default) -> bool:
    """Whether config value `v` has the type of a field defaulting to
    `default`: an int, a number, a list of those, or a string or null."""
    if isinstance(default, tuple):
        return (isinstance(v, (list, tuple))
                and all(_has_type_of(x, default[0]) for x in v))
    if isinstance(default, (int, float)):
        number = int if isinstance(default, int) else (int, float)
        return isinstance(v, number) and not isinstance(v, bool)
    return v is None or isinstance(v, str)


@contextmanager
def _stage(name: str, path: str):
    """Report a failure inside the block as one of stage `name` on `path`."""
    try:
        yield
    except (OSError, ValueError, TensorIOError, NumericalError) as e:
        raise PipelineStageError(name, path, e)


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


def read_header_in(stage: str, path, shape: tuple | None = None):
    """(dtype, dims, payload offset) of tensor file `path`, payload unread;
    a failure, or dims other than `shape`, is one of `stage` on `path`."""
    with _stage(stage, path), open(path, "rb", buffering=0) as fh:
        dtype, dims = read_header(fh, path)
        if shape is not None and dims != tuple(shape):
            raise ValueError(f"shape {dims}, expected {tuple(shape)}")
        return dtype, dims, fh.tell()


def read_in(stage: str, path, shape: tuple | None = None):
    """read_tensor(path), its header first checked by `read_header_in`."""
    read_header_in(stage, path, shape)
    with _stage(stage, path):
        return read_tensor(path)


def read_labels(stage: str, path, shape: tuple | None = None):
    """read_in(stage, path, shape), its labels passing `check_labels`
    under the same stage and path."""
    labels = read_in(stage, path, shape)
    with _stage(stage, path):
        check_labels(labels)
    return labels


def read_input(path, parse):
    """`parse` applied to the text of the JSON input file `path`; any
    failure is reported as one of stage `inputs` on `path`."""
    with _stage("inputs", path):
        try:
            return parse(read_text(path))
        except (KeyError, TypeError) as e:  # missing or mistyped field
            raise ValueError(f"bad field: {e!r}") from e


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _grid_level(grid: VoxelGridSpec, level: int) -> VoxelGridSpec:
    f = 2 ** level
    return VoxelGridSpec(grid.nx // f, grid.ny // f, grid.nz // f,
                         origin=grid.origin, voxel_size=grid.voxel_size * f)


def frustum(cfg: PipelineConfig) -> FrustumSpec:
    return FrustumSpec(cfg.depth_min, cfg.depth_max, cfg.depth_step)


def cost_volume(cfg: PipelineConfig, stride: int, rig: CameraRig, cam: int,
                cur: np.ndarray, prev: np.ndarray,
                rel: RigidTransform):
    """Plane-sweep cost volume of camera `cam` from the (N, C, H, W) feature
    stacks at `stride` of the current and previous frame, as the float32
    (D, H, W) volume that is written and pooled to coarser strides. The
    sweep runs in float64; the check runs on the float32 volume, since a
    finite float64 value can overflow float32."""
    if not (cur.shape[:1] == prev.shape[:1] == (len(rig),) and
            0 <= cam < len(rig)):
        raise ValueError(f"camera {cam} of features {cur.shape} and "
                         f"{prev.shape} from a {len(rig)}-camera rig")
    k, cam_to_ego = rig.cameras[cam]
    cv = temporal.build_cost_volume(cur[cam], prev[cam], rel, k.scaled(stride),
                                    frustum(cfg), cam_to_ego=cam_to_ego)
    cv = cv.astype(np.float32)
    check_finite(f"cost volume camera {cam}", cv)
    return cv


def pooling_index(cfg: PipelineConfig, stride: int, rig: CameraRig,
                  grid: VoxelGridSpec):
    scaled = CameraRig(tuple((k.scaled(stride), t) for k, t in rig.cameras))
    return build_pooling_index(scaled, frustum(cfg), grid)


def lift_frame(feats: np.ndarray, logits: np.ndarray, idx):
    """Lift one frame's (N, C, H, W) features through the softmax of its
    (N, D, H, W) depth logits into the float32 (C, nx, ny, nz) grid that is
    written, and for a past frame warped and stacked. Each channel row is
    summed in float64 and stored as float32; the check runs on the float32
    grid, since a finite float64 sum can overflow float32."""
    check_finite("depth logits", logits)
    lifted = lift_and_pool(feats, normalize_depth_logits(logits), idx,
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
    CLASS_NAMES. `depth_logits` is a (..., D, h, w) stack of camera maps and
    `gt_depth` the (..., h, w) depth at their pixels; the depth term is the
    mean over cameras, a camera with no in-range depth counting 0, and is
    0.0 when no depth is given. A NaN or inf term raises NumericalError."""
    w = losses.class_frequency_weights(sem, occ, mask)
    lo, _ = losses.bce_occ_loss(occ_logits, occ, mask, w)
    ls, _ = losses.focal_sem_loss(sem_logits, sem, occ, mask, w)
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


class _PredictionFile:
    """An entry file of `load_prediction_sets`, its header checked up front
    and its payload read, de-augmented, on use: whole by `np.asarray`, or
    class row k by `[k]` into the one row buffer per dtype in `rows`."""

    def __init__(self, path, tag, rows, shape=None):
        self.path, self.tag, self.rows = path, tag, rows
        self.dtype, self.shape, self.offset = read_header_in("postprocess",
                                                             path, shape)

    def __array__(self, dtype=None, copy=None):
        whole = read_in("postprocess", self.path, self.shape)
        return np.asarray(postprocess.deaugment(self.tag, whole)[0], dtype)

    def __getitem__(self, k):
        if self.dtype not in self.rows:
            self.rows[self.dtype] = np.empty(self.shape[1:], self.dtype)
        row = self.rows[self.dtype]
        with open(self.path, "rb", buffering=0) as fh:
            fh.seek(self.offset + k * row.nbytes)
            if fh.readinto(row) != row.nbytes:
                raise TensorIOError(f"{self.path}: short class row {k}")
        return postprocess.deaugment(self.tag, row)[0]


def load_prediction_sets(preds_dir: str, shape: tuple | None = None):
    """Read and check tags.json and every entry file's header, the occ
    entries against `shape` when given; return each model's entries as
    (occ, sem) pairs of `_PredictionFile`s. A failure is one of stage
    `postprocess` on the file at fault."""
    path = os.path.join(preds_dir, "tags.json")
    names = {f.name for f in fields(postprocess.AugmentationTag)}
    with _stage("postprocess", path):
        tags = json.loads(read_text(path))
        for key in ("model_a", "model_b"):
            if not isinstance(tags, dict) or not isinstance(tags.get(key), list):
                raise ValueError(f"tags.json has no {key!r} list")
            for td in tags[key]:
                if not (isinstance(td, dict) and set(td) == names and
                        all(isinstance(v, bool) for v in td.values())):
                    raise ValueError(f"{key} tag {td!r} does not have exactly "
                                     f"the boolean fields {sorted(names)}")
    rows = {}

    def entry(model, j, td):
        tag = postprocess.AugmentationTag(**td)
        path = os.path.join(preds_dir, f"model_{model}_entry{j}_{{}}.msoc")
        occ = _PredictionFile(path.format("occ"), tag, rows, shape)
        return occ, _PredictionFile(path.format("sem"), tag, rows,
                                    (len(CLASS_NAMES), *occ.shape))

    return tuple([entry(m, j, td) for j, td in enumerate(tags[f"model_{m}"])]
                 for m in "ab")


def evaluate(pred, gt, mask, include_free: bool = False) -> dict:
    matrix = metrics.accumulate(pred, gt, mask, len(CLASS_NAMES))
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
    with _stage("inputs", os.path.join(inp, "config.json")):
        lattice = k0.scaled(COST_STRIDE)
        for s in cfg.strides:
            factor = s // COST_STRIDE
            if lattice.height % factor or lattice.width % factor:
                raise ValueError(
                    f"stride {s} pools the {lattice.height}x{lattice.width} "
                    f"cost-volume lattice by {factor}, which does not divide it")

    # ---- stage: multi-scale ground truth (first: it needs no other stage,
    # so a bad label fails before any output is written) ----
    gt_occ = read_in("gt_pyramid", os.path.join(inp, "gt_occ.msoc"), grid.shape)
    gt_sem = read_labels("gt_pyramid", os.path.join(inp, "gt_sem.msoc"),
                         grid.shape)
    mask = read_in("gt_pyramid", os.path.join(inp, "mask.msoc"),
                   grid.shape).astype(bool)
    # later stages' inputs are checked before the first write too, only
    # their headers, so no payload is held before the stage that reads it
    depth_path = os.path.join(inp, "gt_depth.msoc")
    read_header_in("loss", depth_path, (len(rig), k0.height, k0.width))
    head = os.path.join(inp, "heads", "{}_logits_scale{}.msoc")
    for i in range(len(cfg.strides)):
        level = _grid_level(grid, i).shape
        read_header_in("loss", head.format("occ", i), level)
        read_header_in("loss", head.format("sem", i), (len(CLASS_NAMES), *level))
    preds = os.path.join(inp, "preds")
    prediction_sets = load_prediction_sets(preds, grid.shape)
    with _stage("gt_pyramid", os.path.join(inp, "gt_occ.msoc")):
        pyramid = build_pyramid(gt_occ, gt_sem, mask, levels=len(cfg.strides))
        write_pyramid(os.path.join(out, "gt_pyramid"), pyramid)

    def frame_path(kind, t, stride):
        return os.path.join(inp, kind, f"frame{t:02d}_stride{stride}.msoc")

    # ---- stage: cost volumes at COST_STRIDE between adjacent frames ----
    cv_dir = os.path.join(out, "cost_volumes")
    os.makedirs(cv_dir, exist_ok=True)
    feats_prev = read_in("cost_volume", frame_path("features", 0, COST_STRIDE))
    for t in range(1, num_frames):
        path = frame_path("features", t, COST_STRIDE)
        with _stage("cost_volume", path):
            feats_cur = read_tensor(path)
            rel = relative_ego_motion(poses[t - 1], poses[t])
            for cam in range(len(rig)):
                cv = cost_volume(cfg, COST_STRIDE, rig, cam, feats_cur,
                                 feats_prev, rel)
                name = os.path.join(cv_dir, f"frame{t:02d}_cam{cam}_stride{{}}.msoc")
                write_tensor(name.format(COST_STRIDE), cv)
                for s in cfg.strides:
                    write_tensor(name.format(s),
                                 temporal.rescale_cost_volume(cv, s))
                del cv  # so the next camera's volume is built without it
        feats_prev = feats_cur  # each frame is read once

    # ---- stage: lift + temporal stack per scale (earliest frame dropped) ----
    vox_dir = os.path.join(out, "voxel")
    os.makedirs(vox_dir, exist_ok=True)
    current_logits = []  # per stride, reused by the loss stage
    for level, stride in enumerate(cfg.strides):
        g = _grid_level(grid, level)
        with _stage("lift_stack", os.path.join(inp, "rig.json")):
            idx = pooling_index(cfg, stride, rig, g)
        aligned = []
        for t in range(1, num_frames):
            # each input is read and checked under its own path, so an error
            # names the file at fault
            path = frame_path("features", t, stride)
            with _stage("lift_stack", path):
                feats = read_tensor(path)
                check_finite("features", feats)
                n, _, h, w = idx.depth_shape
                if feats.shape[:1] + feats.shape[2:] != (n, h, w):
                    raise ValueError(f"features {feats.shape} on a {h}x{w} rig")
            path = frame_path("depth_logits", t, stride)
            with _stage("lift_stack", path):
                logits = read_tensor(path)
                block = lift_frame(feats, logits, idx)
                write_tensor(os.path.join(
                    vox_dir, f"frame{t:02d}_scale{level}.msoc"), block)
                # past frames warp their written grid, as `msocc warp` does
                if t < num_frames - 1:
                    block = temporal.warp_voxel_grid(
                        block, relative_ego_motion(poses[t], poses[-1]), g)
                aligned.append(block)
        current_logits.append(logits)
        stack = temporal.stack_temporal(aligned)
        # identity stands in for the out-of-scope 3D fusion network
        write_tensor(os.path.join(vox_dir, f"stack_scale{level}.msoc"), stack)

    # ---- stage: loss report against the pyramid ----
    with _stage("loss", os.path.join(inp, "heads")):
        gt_depth = read_in("loss", depth_path)
        terms = []
        for i, stride in enumerate(cfg.strides):
            # depth supervision at this scale's stride, pixel-center subsampled
            c = stride // 2
            terms.append(scale_losses(
                cfg, *(read_in("loss", head.format(n, i)) for n in ("occ", "sem")),
                pyramid.occ[i], pyramid.sem[i], pyramid.mask[i],
                current_logits[i], gt_depth[:, c::stride, c::stride]))
        report = losses.total_loss(*zip(*terms))
        write_json(os.path.join(out, "loss_report.json"), report)

    # ---- stage: de-augment, ensemble, threshold, evaluate ----
    with _stage("postprocess", preds):
        occ_prob, sem_label = postprocess.ensemble(*prediction_sets,
                                                   cfg.ensemble_weights)
        final = postprocess.apply_thresholds(occ_prob, sem_label, thresholds)
        write_tensor(os.path.join(out, "occ_prob.msoc"),
                     occ_prob.astype(np.float32))
        write_tensor(os.path.join(out, "final_labels.msoc"), final)
        eval_report = evaluate(final, gt_sem, mask)
        write_json(os.path.join(out, "eval_report.json"), eval_report)

    write_json(os.path.join(out, "metadata.json"),
               {"config": asdict(cfg), "num_frames": num_frames})
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

    with open(os.path.join(out_dir, "rig.json"), "w") as fh:
        fh.write(scene.rig.to_json())
    with open(os.path.join(out_dir, "grid.json"), "w") as fh:
        fh.write(scene.grid.to_json())
    write_json(os.path.join(out_dir, "poses.json"),
               [p.to_dict() for p in scene.poses])
    write_json(os.path.join(out_dir, "config.json"), asdict(cfg))

    write_tensor(os.path.join(out_dir, "gt_occ.msoc"),
                 scene.gt_occ.astype(np.uint8))
    write_tensor(os.path.join(out_dir, "gt_sem.msoc"),
                 scene.gt_sem.astype(np.uint8))
    write_tensor(os.path.join(out_dir, "mask.msoc"),
                 scene.mask.astype(np.uint8))
    write_tensor(os.path.join(out_dir, "gt_depth.msoc"),
                 scene.gt_depth.astype(np.float64))

    n_cams = len(scene.rig)
    k0 = scene.rig.cameras[0][0]
    num_frames = len(scene.poses)
    f = frustum(cfg)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "depth_logits"), exist_ok=True)
    for t in range(num_frames):
        for s in (COST_STRIDE, *cfg.strides):
            h, w = k0.height // s, k0.width // s
            feats = rng.standard_normal((n_cams, channels, h, w))
            write_tensor(os.path.join(out_dir, "features",
                                      f"frame{t:02d}_stride{s}.msoc"),
                         feats.astype(np.float32))
            if s == COST_STRIDE:
                continue
            sub = scene.gt_depth[:, s // 2::s, s // 2::s]
            logits = rng.standard_normal((n_cams, f.num_bins, h, w)) * 0.1
            valid = f.in_range(sub)
            bins = f.bin_of(np.where(valid, sub, f.depth_min))
            cam_i, v_i, u_i = np.nonzero(valid)
            logits[cam_i, bins[valid], v_i, u_i] += 5.0
            write_tensor(os.path.join(out_dir, "depth_logits",
                                      f"frame{t:02d}_stride{s}.msoc"),
                         logits.astype(np.float32))

    os.makedirs(os.path.join(out_dir, "heads"), exist_ok=True)
    pyramid = build_pyramid(scene.gt_occ, scene.gt_sem, scene.mask,
                            levels=len(cfg.strides))
    for i in range(len(cfg.strides)):
        occ_logits, sem_logits = fixtures.oracle_logits(pyramid.occ[i],
                                                        pyramid.sem[i])
        write_tensor(os.path.join(out_dir, "heads",
                                  f"occ_logits_scale{i}.msoc"), occ_logits)
        write_tensor(os.path.join(out_dir, "heads",
                                  f"sem_logits_scale{i}.msoc"), sem_logits)

    os.makedirs(os.path.join(out_dir, "preds"), exist_ok=True)
    occ_prob, sem_prob = fixtures.oracle_predictions(scene)
    tags = postprocess.enumerate_tta()
    tag_dicts = [asdict(t) for t in tags]
    write_json(os.path.join(out_dir, "preds", "tags.json"),
               {"model_a": tag_dicts, "model_b": tag_dicts})
    for model in ("a", "b"):
        for j, tag in enumerate(tags):
            # the flips are involutions, so deaugment also augments
            for name, vol in zip(("occ", "sem"),
                                 postprocess.deaugment(tag, occ_prob, sem_prob)):
                write_tensor(os.path.join(out_dir, "preds",
                                          f"model_{model}_entry{j}_{name}.msoc"),
                             vol.astype(np.float32))
