"""Spans around msocc's public functions, recorded from the benchmark's side.

`Tracer.install` replaces each traced function, wherever an msocc module
holds a reference to it, with a wrapper that records a span: name, start,
end, the enclosing span and, when tracemalloc runs, the span's peak
allocation above what was allocated when it opened. Nothing under src/
changes; `restore` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

MB = float(1 << 20)


# span name -> (module, attribute, amount or None). An attribute
# "Class.method" wraps the method on the class. An amount is a function of
# the call's (args, result) whose values the span sums: bytes read or
# written, pooling-index entries.
RUN_SPANS = {
    "tensorio.read": ("msocc.tensorio", "read_tensor", lambda a, r: r.nbytes),
    "tensorio.write": ("msocc.tensorio", "write_tensor", lambda a, r: a[1].nbytes),
    "temporal.cost_volume": ("msocc.temporal", "build_cost_volume", None),
    "temporal.rescale": ("msocc.temporal", "rescale_cost_volume", None),
    "temporal.warp": ("msocc.temporal", "warp_voxel_grid", None),
    "temporal.stack": ("msocc.temporal", "stack_temporal", None),
    "lift_splat.index": ("msocc.lift_splat", "build_pooling_index",
                         lambda a, r: r.num_entries),
    "lift_splat.lift": ("msocc.lift_splat", "lift_and_pool", None),
    "lift_splat.softmax": ("msocc.lift_splat", "normalize_depth_logits", None),
    "gt_multiscale.pyramid": ("msocc.gt_multiscale", "build_pyramid", None),
    "losses.weights": ("msocc.losses", "class_frequency_weights", None),
    "losses.bce": ("msocc.losses", "bce_occ_loss", None),
    "losses.focal": ("msocc.losses", "focal_sem_loss", None),
    "losses.depth": ("msocc.losses", "depth_loss", None),
    "losses.total": ("msocc.losses", "total_loss", None),
    "postprocess.deaugment": ("msocc.postprocess", "deaugment", None),
    "postprocess.ensemble": ("msocc.postprocess", "ensemble", None),
    "postprocess.threshold": ("msocc.postprocess", "apply_thresholds", None),
    "metrics.accumulate": ("msocc.metrics", "accumulate", None),
    "metrics.miou": ("msocc.metrics", "miou", None),
    "geometry.relative_ego_motion": ("msocc.geometry", "relative_ego_motion", None),
    "geometry.compose": ("msocc.geometry", "compose", None),
    "geometry.invert": ("msocc.geometry", "invert", None),
    "geometry.project": ("msocc.geometry", "project", None),
    "geometry.unproject": ("msocc.geometry", "unproject", None),
    "geometry.frustum_points": ("msocc.geometry", "frustum_points", None),
    "geometry.voxel_indices": ("msocc.geometry", "voxel_indices", None),
    "geometry.apply": ("msocc.geometry", "RigidTransform.apply", None),
    "geometry.cell_centers": ("msocc.geometry", "VoxelGridSpec.cell_centers", None),
    "geometry.scaled": ("msocc.geometry", "Intrinsics.scaled", None),
}

SETUP_SPANS = {
    "fixtures.make_scene": ("msocc.fixtures", "make_scene", None),
    "fixtures.raymarch": ("msocc.fixtures", "raymarch", None),
    "pipeline.emit_inputs": ("msocc.pipeline", "emit_inputs", None),
    "setup.tensorio.write": RUN_SPANS["tensorio.write"],
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "base", "peak", "amount")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.amount = 0
        self.base = self.peak = 0


class Tracer:
    """Records spans in memory; `memory=True` also records peak allocation,
    which needs tracemalloc to be running."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list = []

    def install(self, table: dict) -> None:
        for name, (module, attr, amount) in table.items():
            owner = importlib.import_module(module)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, amount)
            targets = [owner] if cls_name else [
                m for key, m in sys.modules.items()
                if key.split(".")[0] == "msocc" and getattr(m, attr, None) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, amount):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if amount is not None:
                span.amount = amount(args, result)
            return result
        return traced

    def _enter(self, name) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self._open.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                span.parent.peak = max(span.parent.peak, span.peak)


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds, self seconds (minus direct child
    spans), peak MB above the span's start (max over calls) and summed
    amount."""
    out = {}
    child_s = {}
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + s.end - s.start
    for s in spans:
        d = out.setdefault(s.name, dict(calls=0, s=0.0, self_s=0.0, peak_mb=0.0,
                                        amount=0))
        dur = s.end - s.start
        d["calls"] += 1
        d["s"] += dur
        d["self_s"] += dur - child_s.get(id(s), 0.0)
        d["peak_mb"] = max(d["peak_mb"], (s.peak - s.base) / MB)
        d["amount"] += s.amount
    return out


def layer_seconds(spans, layer: str) -> float:
    """Busy seconds of a layer, counting only spans not nested in another
    span of the same layer."""
    prefix = layer + "."
    total = 0.0
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and not p.name.startswith(prefix):
            p = p.parent
        if p is None:
            total += s.end - s.start
    return total
