"""The benchmark's workloads and how their input directories are made.

Each workload is a scene size plus a pipeline config. Inputs come from
`fixtures.make_scene` and `pipeline.emit_inputs`, seeded by the benchmark's
`--seed`, so the same seed gives byte-identical inputs. Scenes whose boxes
cover the camera rig are skipped (see make_inputs).

- desk: the acceptance scale. Fixed per-call costs (small files, Python
  between kernels) weigh most, so a big-array kernel change should show no
  change here and added per-call work shows.
- paper: a 200x200x16 grid with 6 cameras. Voxel-heavy: warp, tensor reads
  and the ensemble dominate; the cost volume is light.
- stereo: 2 wide cameras with 64 channels and 59 depth bins on a small grid.
  The cost volume dominates; the voxel layers and I/O are light.
"""

from __future__ import annotations

from msocc import fixtures, pipeline
from msocc.geometry import VoxelGridSpec

_SEED_STEP = 1_000_003

WORKLOADS = {
    "desk": dict(scene=dict(num_cameras=6, num_frames=4, num_boxes=8,
                            image_width=128, image_height=96, focal=40.0),
                 grid=None, channels=8,
                 config=dict(depth_min=1.0, depth_max=13.0)),
    "paper": dict(scene=dict(num_cameras=6, num_frames=3, num_boxes=64,
                             image_width=256, image_height=128, focal=128.0),
                  grid=(200, 200, 16), channels=16,
                  config=dict(depth_min=1.0, depth_max=40.0)),
    "stereo": dict(scene=dict(num_cameras=2, num_frames=3, num_boxes=8,
                              image_width=704, image_height=256, focal=352.0),
                   grid=None, channels=64,
                   config=dict(depth_min=1.0, depth_max=60.0)),
}


def make_inputs(name: str, seed: int, out_dir: str) -> None:
    """Generate the input directory of workload `name` from `seed`."""
    w = WORKLOADS[name]
    # None is make_scene's 40x40x8 grid; a size gets VoxelGridSpec's
    # default 0.4 m voxels from (-40, -40, -1)
    grid = VoxelGridSpec(*w["grid"]) if w["grid"] else None
    # A box drawn over the rig holds every camera, so every depth is 0 and
    # ray marching ends at once. No driving scene looks like that, so such
    # draws are skipped: the next candidate seed is tried.
    for candidate in range(seed, seed + 100 * _SEED_STEP, _SEED_STEP):
        scene = fixtures.make_scene(grid=grid, seed=candidate, **w["scene"])
        if (scene.gt_depth > 0).any():
            break
    else:
        raise RuntimeError(f"no scene with a free rig from seed {seed}")
    cfg = pipeline.PipelineConfig(**w["config"])
    pipeline.emit_inputs(out_dir, scene, cfg, channels=w["channels"], seed=seed)
