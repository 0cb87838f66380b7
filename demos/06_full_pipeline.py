"""Run the whole pipeline end to end on a synthetic scene.

emit_inputs writes a complete input directory (rig, grid, poses, per-frame
features and depth logits, ground truth, augmented prediction sets);
run_pipeline consumes it and writes loss and evaluation reports. Two runs
over the same inputs are byte-identical.
"""

import json
import tempfile
from pathlib import Path

from msocc import fixtures, pipeline

scene = fixtures.make_scene(seed=7, num_cameras=2, num_frames=4,
                            num_boxes=4, image_width=128, image_height=96)
with tempfile.TemporaryDirectory(prefix="msocc_demo_") as tmp:
    root = Path(tmp)
    pipeline.emit_inputs(root / "inputs", scene, seed=7)
    print(f"inputs under {root / 'inputs'}")

    pipeline.run_pipeline(root / "inputs", root / "outputs")

    loss = json.loads((root / "outputs" / "loss_report.json").read_text())
    ev = json.loads((root / "outputs" / "eval_report.json").read_text())
    print(f"total loss: {loss['total']:.6f}")
    print(f"mIoU: {ev['miou']}")
    print(f"artifacts: {sorted(p.name for p in (root / 'outputs').iterdir())}")
