"""Pipeline driver: wires cost volumes, lifting, temporal stacking, the loss
stack, and the post-process / evaluation route over a directory of tensors.

Each stage is a function from arrays to arrays; `run_pipeline` and the CLI
subcommands call the same functions and keep file reads and writes around
them.

Input directory layout (as emitted by `msocc synth`):

    rig.json, grid.json, poses.json, config.json
    gt_occ.msoc, gt_sem.msoc, mask.msoc          uint8 / uint8 / uint8
    gt_depth.msoc                                 f64 (N, H, W), inf = no hit
    features/frame{t:02d}_stride{s}.msoc          f32 (N, C, H, W)
    depth_logits/frame{t:02d}_stride{s}.msoc      f32 (N, D, H, W)
    heads/occ_logits_scale{i}.msoc                f64 (nx, ny, nz)
    heads/sem_logits_scale{i}.msoc                f64 (K, nx, ny, nz)
    preds/tags.json                               TTA tags per model
    preds/model_{a,b}_entry{j}_{occ,sem}.msoc     augmented probability volumes

Frames are ordered oldest to newest; the last frame is the current one.
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
from .geometry import CameraRig, FrustumSpec, VoxelGridSpec, relative_ego_motion, RigidTransform
from .gt_multiscale import FREE, build_pyramid
from .lift_splat import build_pooling_index, lift_and_pool, normalize_depth_logits
from .tensorio import TensorIOError, read_tensor, write_tensor


class PipelineStageError(Exception):
    def __init__(self, stage: str, path: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed on {path}: {cause}")
        self.stage = stage
        self.path = path
        self.cause = cause


class NumericalError(Exception):
    """NaN or inf detected in a pipeline tensor (exit code 3 at the CLI)."""


@dataclass
class PipelineConfig:
    strides: tuple = (8, 16, 32)
    cost_stride: int = 4
    depth_min: float = 1.0
    depth_max: float = 13.0
    depth_step: float = 1.0
    gamma: float = 2.0
    alphas: tuple = (1.0, 0.5, 0.25)
    weight_mode: str = "inverse_frequency"
    ensemble_weights: tuple = (0.45, 0.55)
    threshold_table: str | None = None  # path; None = built-in defaults
    num_classes: int = 17

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        cfg = cls()
        for k, v in d.items():
            if not hasattr(cfg, k):
                raise ValueError(f"unknown config key {k!r}")
            if isinstance(getattr(cfg, k), tuple) and v is not None:
                v = tuple(v)
            setattr(cfg, k, v)
        if cfg.weight_mode not in ("inverse_frequency", "uniform"):
            raise ValueError(f"unknown weight_mode {cfg.weight_mode!r}")
        return cfg


def check_finite(name: str, arr) -> None:
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():
        raise NumericalError(f"{name}: {int(np.isnan(arr).sum())} NaN, "
                             f"{int(np.isinf(arr).sum())} inf")


@contextmanager
def _stage(name: str, path: str):
    """Report a failure inside the block as one of stage `name` on `path`."""
    try:
        yield
    except NumericalError as e:
        raise NumericalError(f"stage {name!r} on {path}: {e}")
    except (OSError, ValueError, TensorIOError) as e:
        raise PipelineStageError(name, path, e)


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


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


def frustum(cfg: PipelineConfig, stride: int, h: int, w: int) -> FrustumSpec:
    return FrustumSpec(feat_width=w, feat_height=h, stride=stride,
                       depth_min=cfg.depth_min, depth_max=cfg.depth_max,
                       depth_step=cfg.depth_step)


def cost_volume(cfg: PipelineConfig, stride: int, rig: CameraRig, cam: int,
                cur: np.ndarray, prev: np.ndarray,
                rel: RigidTransform):
    """Plane-sweep cost volume of camera `cam` from its (C, H, W) features
    at `stride` in the current and previous frame; returns the float64
    (D, H, W) volume and the float32 copy it is written as. The check runs
    on the copy, since a finite float64 value can overflow float32."""
    k, cam_to_ego = rig.cameras[cam]
    f = frustum(cfg, stride, cur.shape[1], cur.shape[2])
    cv = temporal.build_cost_volume(cur.astype(np.float64),
                                    prev.astype(np.float64), rel,
                                    k.scaled(stride), f, cam_to_ego=cam_to_ego)
    written = cv.astype(np.float32)
    check_finite(f"cost volume camera {cam}", written)
    return cv, written


def pooling_index(cfg: PipelineConfig, stride: int, rig: CameraRig,
                  grid: VoxelGridSpec, h: int, w: int):
    scaled = CameraRig(tuple((k.scaled(stride), t) for k, t in rig.cameras))
    return build_pooling_index(scaled, frustum(cfg, stride, h, w), grid)


def lift_frame(feats: np.ndarray, logits: np.ndarray, idx):
    """Lift one frame's (N, C, H, W) features through the softmax of its
    (N, D, H, W) depth logits; returns the float64 (C, nx, ny, nz) grid and
    the float32 copy it is written as. The check runs on the copy, since a
    finite float64 sum can overflow float32."""
    check_finite("depth logits", logits)
    lifted = lift_and_pool(feats, normalize_depth_logits(logits), idx)
    written = lifted.astype(np.float32)
    check_finite("lifted grid", written)
    return lifted, written


def write_pyramid(out_dir: str, pyramid) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i in range(len(pyramid)):
        for name in ("occ", "sem", "mask"):
            write_tensor(os.path.join(out_dir, f"{name}_scale{i}.msoc"),
                         getattr(pyramid, name)[i].astype(np.uint8))


def scale_losses(occ_logits, sem_logits, occ, sem, mask, num_classes: int,
                 weight_mode: str, gamma: float):
    """Occupancy BCE and semantic focal loss of one scale."""
    if weight_mode == "inverse_frequency":
        w = losses.class_frequency_weights(sem, occ, mask, num_classes)
    else:
        w = losses.ClassWeights.uniform(num_classes)
    lo, _ = losses.bce_occ_loss(occ_logits, occ, mask, w)
    ls, _ = losses.focal_sem_loss(sem_logits, sem, occ, mask, w, gamma)
    return lo, ls


def load_prediction_sets(preds_dir: str):
    """Read and check tags.json; return one iterator per model that reads
    and de-augments that model's entries one at a time."""
    tags = json.loads(read_text(os.path.join(preds_dir, "tags.json")))
    names = {f.name for f in fields(postprocess.AugmentationTag)}
    for key in ("model_a", "model_b"):
        if not isinstance(tags, dict) or not isinstance(tags.get(key), list):
            raise ValueError(f"tags.json has no {key!r} list")
        for td in tags[key]:
            if not isinstance(td, dict) or set(td) != names:
                raise ValueError(f"{key} tag {td!r} does not have exactly "
                                 f"the fields {sorted(names)}")

    def entries(model):
        for j, td in enumerate(tags[f"model_{model}"]):
            path = os.path.join(preds_dir, f"model_{model}_entry{j}_{{}}.msoc")
            yield postprocess.deaugment(postprocess.AugmentationTag(**td),
                                        read_tensor(path.format("occ")),
                                        read_tensor(path.format("sem")))

    return entries("a"), entries("b")


def fuse(entries_a, entries_b, weights):
    occ_prob, sem_label = postprocess.ensemble(
        entries_a, entries_b, postprocess.EnsembleConfig(*weights))
    check_finite("ensembled occupancy", occ_prob)
    return occ_prob, sem_label


def threshold_table(path: str | None) -> dict:
    """Class-wise thresholds from the table at `path`, or the built-in
    defaults when it is None."""
    return (postprocess.load_threshold_table(path) if path
            else postprocess.DEFAULT_THRESHOLDS)


def evaluate(pred, gt, mask, num_classes: int,
             include_free: bool = False) -> dict:
    tally = metrics.ConfusionTally(num_classes)
    metrics.accumulate(pred, gt, mask, tally)
    per_class, mean = metrics.miou(tally, include_free=include_free)
    return {"per_class_iou": {str(k): v for k, v in per_class.items()},
            "miou": mean, "voxels_evaluated": tally.voxels_evaluated}


def run_pipeline(input_dir: str, output_dir: str) -> dict:
    """Execute every stage over an input directory, configured by its
    config.json (the defaults when absent); returns the combined report
    (also written as JSON into output_dir)."""
    inp = input_dir
    out = output_dir
    os.makedirs(out, exist_ok=True)

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
    table = (os.path.join(inp, cfg.threshold_table) if cfg.threshold_table
             else None)
    with _stage("inputs", table):
        thresholds = threshold_table(table)

    def frame_path(kind, t, stride):
        return os.path.join(inp, kind, f"frame{t:02d}_stride{stride}.msoc")

    # ---- stage: cost volumes at stride 1/4 between adjacent frames ----
    cv_dir = os.path.join(out, "cost_volumes")
    os.makedirs(cv_dir, exist_ok=True)
    for t in range(1, num_frames):
        path = frame_path("features", t, cfg.cost_stride)
        with _stage("cost_volume", path):
            feats_cur = read_tensor(path)
            feats_prev = read_tensor(frame_path("features", t - 1, cfg.cost_stride))
            rel = relative_ego_motion(poses[t - 1], poses[t])
            for cam in range(feats_cur.shape[0]):
                cv, written = cost_volume(cfg, cfg.cost_stride, rig, cam,
                                          feats_cur[cam], feats_prev[cam], rel)
                write_tensor(os.path.join(
                    cv_dir, f"frame{t:02d}_cam{cam}_stride{cfg.cost_stride}.msoc"),
                    written)
                for s in cfg.strides:
                    cv_s = temporal.rescale_cost_volume(cv, s, cfg.cost_stride)
                    write_tensor(os.path.join(
                        cv_dir, f"frame{t:02d}_cam{cam}_stride{s}.msoc"),
                        cv_s.astype(np.float32))
                # so the next camera's volume is built without them alive
                del cv, written

    # ---- stage: lift + temporal stack per scale (earliest frame dropped) ----
    vox_dir = os.path.join(out, "voxel")
    os.makedirs(vox_dir, exist_ok=True)
    current_logits = []  # per stride, reused by the loss stage
    for level, stride in enumerate(cfg.strides):
        g = _grid_level(grid, level)
        aligned = []
        for t in range(1, num_frames):
            # each input is read and checked under its own path, so an error
            # names the file at fault
            path = frame_path("features", t, stride)
            with _stage("lift_stack", path):
                feats = read_tensor(path)
                check_finite("features", feats)
                if t == 1:
                    idx = pooling_index(cfg, stride, rig, g, *feats.shape[2:])
            path = frame_path("depth_logits", t, stride)
            with _stage("lift_stack", path):
                logits = read_tensor(path)
                # blocks are kept in float32, the dtype the stack is written in
                lifted, block = lift_frame(feats, logits, idx)
                write_tensor(os.path.join(
                    vox_dir, f"frame{t:02d}_scale{level}.msoc"), block)
                if t < num_frames - 1:
                    # the current frame is already in the current ego frame
                    rel = relative_ego_motion(poses[t], poses[-1])
                    block = temporal.warp_voxel_grid(
                        lifted, rel, g, mode="trilinear").astype(np.float32)
                aligned.append(block)
        current_logits.append(logits)
        stack = temporal.stack_temporal(aligned)
        # identity stands in for the out-of-scope 3D fusion network
        write_tensor(os.path.join(vox_dir, f"stack_scale{level}.msoc"), stack)

    # ---- stage: multi-scale ground truth ----
    with _stage("gt_pyramid", os.path.join(inp, "gt_occ.msoc")):
        gt_occ = read_tensor(os.path.join(inp, "gt_occ.msoc"))
        gt_sem = read_tensor(os.path.join(inp, "gt_sem.msoc"))
        mask = read_tensor(os.path.join(inp, "mask.msoc")).astype(bool)
        pyramid = build_pyramid(gt_occ, gt_sem, mask, levels=len(cfg.strides),
                                num_classes=cfg.num_classes)
        write_pyramid(os.path.join(out, "gt_pyramid"), pyramid)

    # ---- stage: loss report against the pyramid ----
    with _stage("loss", os.path.join(inp, "heads")):
        gt_depth = read_tensor(os.path.join(inp, "gt_depth.msoc"))
        occ_l, sem_l, dep_l = [], [], []
        for i, stride in enumerate(cfg.strides):
            lo, ls = scale_losses(
                read_tensor(os.path.join(inp, "heads", f"occ_logits_scale{i}.msoc")),
                read_tensor(os.path.join(inp, "heads", f"sem_logits_scale{i}.msoc")),
                pyramid.occ[i], pyramid.sem[i], pyramid.mask[i],
                cfg.num_classes, cfg.weight_mode, cfg.gamma)
            # depth supervision at this scale's stride, pixel-center subsampled
            logits = current_logits[i]
            sub = gt_depth[:, stride // 2::stride, stride // 2::stride]
            f = frustum(cfg, stride, logits.shape[2], logits.shape[3])
            valid = f.in_range(sub)
            dl = 0.0
            for cam in range(logits.shape[0]):
                if valid[cam].any():
                    l, _ = losses.depth_loss(logits[cam].astype(np.float64),
                                             np.where(valid[cam], sub[cam],
                                                      f.depth_min),
                                             valid[cam], f)
                    dl += l
            dl /= logits.shape[0]
            occ_l.append(lo)
            sem_l.append(ls)
            dep_l.append(dl)
        report = losses.total_loss(occ_l, sem_l, dep_l, cfg.alphas)
        write_json(os.path.join(out, "loss_report.json"), report.to_dict())

    # ---- stage: de-augment, ensemble, threshold, evaluate ----
    preds = os.path.join(inp, "preds")
    with _stage("postprocess", os.path.join(preds, "tags.json")):
        prediction_sets = load_prediction_sets(preds)
    with _stage("postprocess", preds):
        occ_prob, sem_label = fuse(*prediction_sets, cfg.ensemble_weights)
        final = postprocess.apply_thresholds(occ_prob, sem_label, thresholds)
        write_tensor(os.path.join(out, "occ_prob.msoc"),
                     occ_prob.astype(np.float32))
        write_tensor(os.path.join(out, "final_labels.msoc"), final)
        gt_labels = np.where(gt_occ == 1, gt_sem, FREE).astype(np.uint8)
        eval_report = evaluate(final, gt_labels, mask, cfg.num_classes)
        write_json(os.path.join(out, "eval_report.json"), eval_report)

    write_json(os.path.join(out, "metadata.json"),
               {"config": asdict(cfg), "num_frames": num_frames})
    return {"loss": report.to_dict(), "eval": eval_report}


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
    with open(os.path.join(out_dir, "poses.json"), "w") as fh:
        json.dump([p.to_dict() for p in scene.poses], fh, indent=2)
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
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "depth_logits"), exist_ok=True)
    for t in range(num_frames):
        for s in (cfg.cost_stride, *cfg.strides):
            h, w = k0.height // s, k0.width // s
            feats = rng.standard_normal((n_cams, channels, h, w))
            write_tensor(os.path.join(out_dir, "features",
                                      f"frame{t:02d}_stride{s}.msoc"),
                         feats.astype(np.float32))
            if s == cfg.cost_stride:
                continue
            f = frustum(cfg, s, h, w)
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
                            levels=len(cfg.strides),
                            num_classes=cfg.num_classes)
    for i in range(len(cfg.strides)):
        occ_logits, sem_logits = fixtures.oracle_logits(
            pyramid.occ[i], pyramid.sem[i], cfg.num_classes)
        write_tensor(os.path.join(out_dir, "heads",
                                  f"occ_logits_scale{i}.msoc"), occ_logits)
        write_tensor(os.path.join(out_dir, "heads",
                                  f"sem_logits_scale{i}.msoc"), sem_logits)

    os.makedirs(os.path.join(out_dir, "preds"), exist_ok=True)
    occ_prob, sem_prob = fixtures.oracle_predictions(scene, cfg.num_classes)
    tags = postprocess.enumerate_tta()
    tag_dicts = [asdict(t) for t in tags]
    with open(os.path.join(out_dir, "preds", "tags.json"), "w") as fh:
        json.dump({"model_a": tag_dicts, "model_b": tag_dicts}, fh, indent=2)
    for model in ("a", "b"):
        for j, tag in enumerate(tags):
            write_tensor(os.path.join(out_dir, "preds",
                                      f"model_{model}_entry{j}_occ.msoc"),
                         postprocess.apply_flips(occ_prob, tag).astype(np.float32))
            write_tensor(os.path.join(out_dir, "preds",
                                      f"model_{model}_entry{j}_sem.msoc"),
                         postprocess.apply_flips(sem_prob, tag).astype(np.float32))
