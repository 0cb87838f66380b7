"""One `run_pipeline` call in a fresh process, for the benchmark in run.py.

    python3 perfbench/worker.py INPUT_DIR OUTPUT_DIR [--trace]

Prints one JSON line: the call's wall time, this process's peak RSS, the
mIoU from eval_report.json, the sha256 of the output tree (as acceptance
criterion 12 hashes it) and the error, if the call raised. With --trace the
call runs under tracemalloc with spans around every traced function, and
the line also holds the span summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from msocc.pipeline import run_pipeline  # noqa: E402

from spans import MB, RUN_SPANS, Tracer, layer_seconds, summarize  # noqa: E402


def tree_digest(root: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main(argv: list[str]) -> dict:
    inp, out = argv[0], argv[1]
    tracer = None
    if "--trace" in argv[2:]:
        tracemalloc.start()
        tracer = Tracer(memory=True)
        tracer.install(RUN_SPANS)
    result = {"error": None}
    start = time.perf_counter()
    try:
        run_pipeline(inp, out)
    except Exception as e:  # a failed run is counted, not dropped
        result["error"] = f"{type(e).__name__}: {e}"
    result["wall_s"] = time.perf_counter() - start
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    if tracer is not None:
        tracemalloc.stop()
        tracer.restore()
        result["spans"] = summarize(tracer.spans)
        result["geometry_s"] = layer_seconds(tracer.spans, "geometry")
        result["top_level_s"] = sum(s.end - s.start for s in tracer.spans
                                    if s.parent is None)
    if result["error"] is None:
        with open(os.path.join(out, "eval_report.json")) as fh:
            result["miou"] = json.load(fh)["miou"]
        result["digest"] = tree_digest(out)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
